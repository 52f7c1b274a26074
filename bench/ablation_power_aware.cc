/**
 * @file
 * Ablation for the paper's §3 remark that the exploration metric can
 * combine performance with power and die area, and its observation
 * that perf-only optima stayed "within acceptable limits" on those
 * axes.
 *
 * Part 1 reports area and power of the perf-only customized
 * configurations (Table 4). Part 2 re-customizes three representative
 * workloads with an IPT^2/W objective and shows what performance is
 * traded for how much power.
 */

#include <cstdio>

#include "comm/experiments.hh"
#include "explore/explorer.hh"
#include "sim/area_power.hh"
#include "sim/simulator.hh"
#include "util/env.hh"
#include "util/table.hh"

using namespace xps;

int
main()
{
    const ExperimentContext &ctx = experimentContext();
    const Budget &budget = Budget::get();

    std::printf("=== Part 1: area/power of the perf-only customized "
                "configurations ===\n\n");
    AsciiTable table({"workload", "IPT", "area(mm2)", "total W",
                      "dynamic W", "EPI(nJ)"});
    for (size_t w = 0; w < ctx.suite.size(); ++w) {
        SimOptions opts;
        opts.measureInstrs = budget.finalInstrs;
        const SimStats stats =
            simulate(ctx.suite[w], ctx.configs[w], opts);
        const AreaPowerEstimate est =
            estimateAreaPower(ctx.configs[w], stats);
        table.beginRow();
        table.cell(ctx.suite[w].name);
        table.cell(stats.ipt(), 2);
        table.cell(est.totalMm2, 1);
        table.cell(est.totalW, 2);
        table.cell(est.dynamicW, 2);
        table.cell(est.epiNj, 3);
    }
    table.print();

    std::printf("\n=== Part 2: perf-only vs IPT^2/W exploration ===\n\n");
    const std::vector<std::string> picks{"gzip", "crafty", "mcf"};
    AsciiTable cmp({"workload", "objective", "IPT", "W", "IPT^2/W",
                    "config"});
    for (const auto &name : picks) {
        const WorkloadProfile &profile = profileByName(name);
        UnitTiming timing;
        SearchSpace space(timing);

        auto score = [&](const CoreConfig &cfg, bool power_aware) {
            SimOptions opts;
            opts.measureInstrs = budget.evalInstrs;
            const SimStats stats = simulate(profile, cfg, opts);
            return power_aware ? iptPerWatt(cfg, stats)
                               : stats.ipt();
        };
        for (bool power_aware : {false, true}) {
            AnnealParams params;
            params.iterations = budget.saIters / 2;
            params.seed = 2024 + power_aware;
            Annealer annealer(
                space,
                [&](const CoreConfig &cfg) {
                    return score(cfg, power_aware);
                },
                params);
            const AnnealResult res =
                annealer.run(space.initialConfig());

            SimOptions opts;
            opts.measureInstrs = budget.finalInstrs;
            const SimStats stats = simulate(profile, res.best, opts);
            const AreaPowerEstimate est =
                estimateAreaPower(res.best, stats);
            cmp.beginRow();
            cmp.cell(name);
            cmp.cell(power_aware ? "IPT^2/W" : "IPT");
            cmp.cell(stats.ipt(), 2);
            cmp.cell(est.totalW, 2);
            cmp.cell(stats.ipt() * stats.ipt() / est.totalW, 2);
            cmp.cell(res.best.summary());
        }
    }
    cmp.print();
    return 0;
}
