#include "comm/experiments.hh"

#include <cstdio>
#include <sstream>

#include "explore/explorer.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "workload/trace.hh"

namespace xps
{

const CoreConfig &
ExperimentContext::configOf(const std::string &name) const
{
    for (const auto &cfg : configs) {
        if (cfg.name == name)
            return cfg;
    }
    fatal("ExperimentContext: no configuration named '%s'",
          name.c_str());
}

std::string
table4CachePath()
{
    return Budget::get().resultsDir + "/table4_configs.csv";
}

std::string
table5CachePath()
{
    return Budget::get().resultsDir + "/table5_matrix.csv";
}

namespace
{

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
profilesKey(const std::vector<WorkloadProfile> &suite)
{
    std::ostringstream out;
    for (size_t i = 0; i < suite.size(); ++i) {
        out << (i ? ";" : "") << suite[i].name << ':'
            << hex64(profileFingerprint(suite[i]));
    }
    return out.str();
}

std::string
configsKey(const std::vector<CoreConfig> &configs)
{
    std::ostringstream out;
    for (size_t i = 0; i < configs.size(); ++i)
        out << (i ? ";" : "") << hex64(configFingerprint(configs[i]));
    return out.str();
}

} // namespace

CsvManifest
table4Manifest(const std::vector<WorkloadProfile> &suite)
{
    // Exactly the knobs that shape the exploration result. The
    // checkpoint cadence is deliberately absent: resume is
    // bit-identical, so XPS_CHECKPOINT_EVERY never stales a cache.
    const Budget &budget = Budget::get();
    CsvManifest m;
    m.set("kind", std::string("table4-configs"));
    m.set("schema", std::string("1"));
    m.set("eval_instrs", budget.evalInstrs);
    m.set("sa_iters", budget.saIters);
    m.set("final_instrs", budget.finalInstrs);
    m.set("profiles", profilesKey(suite));
    return m;
}

CsvManifest
table5Manifest(const std::vector<WorkloadProfile> &suite,
               const std::vector<CoreConfig> &configs)
{
    const Budget &budget = Budget::get();
    CsvManifest m;
    m.set("kind", std::string("table5-matrix"));
    m.set("schema", std::string("1"));
    m.set("final_instrs", budget.finalInstrs);
    m.set("profiles", profilesKey(suite));
    m.set("configs", configsKey(configs));
    return m;
}

bool
loadTable4Cache(const std::vector<WorkloadProfile> &suite,
                std::vector<CoreConfig> &configs)
{
    CsvDoc doc;
    if (!readCsvValidated(table4CachePath(), doc,
                          table4Manifest(suite)))
        return false;
    if (doc.rows.size() != suite.size())
        return false;
    std::vector<CoreConfig> loaded;
    loaded.reserve(suite.size());
    for (size_t w = 0; w < suite.size(); ++w) {
        const CoreConfig cfg =
            CoreConfig::fromCsvRow(doc.header, doc.rows[w]);
        if (cfg.name != suite[w].name)
            return false;
        loaded.push_back(cfg);
    }
    configs = std::move(loaded);
    return true;
}

void
storeTable4Cache(const std::vector<WorkloadProfile> &suite,
                 const std::vector<CoreConfig> &configs)
{
    CsvDoc doc;
    doc.header = CoreConfig::csvHeader();
    for (const auto &cfg : configs)
        doc.rows.push_back(cfg.toCsvRow());
    writeCsv(table4CachePath(), doc, table4Manifest(suite));
}

bool
loadTable5Cache(const std::vector<WorkloadProfile> &suite,
                const std::vector<CoreConfig> &configs,
                PerfMatrix &matrix)
{
    CsvDoc doc;
    if (!readCsvValidated(table5CachePath(), doc,
                          table5Manifest(suite, configs)))
        return false;
    if (doc.rows.size() != suite.size())
        return false;
    matrix = PerfMatrix::fromCsv(doc.header, doc.rows);
    return true;
}

void
storeTable5Cache(const std::vector<WorkloadProfile> &suite,
                 const std::vector<CoreConfig> &configs,
                 const PerfMatrix &matrix)
{
    CsvDoc doc;
    doc.header.push_back("workload");
    for (const auto &name : matrix.names())
        doc.header.push_back(name);
    doc.rows = matrix.toCsvRows();
    writeCsv(table5CachePath(), doc, table5Manifest(suite, configs));
}

namespace
{

ExperimentContext
computeContext()
{
    const Budget &budget = Budget::get();
    ExperimentContext ctx;
    ctx.suite = spec2000int();

    if (!loadTable4Cache(ctx.suite, ctx.configs)) {
        Metrics::global().counter("cache.table4_misses").add();
        inform("exploring customized configurations "
               "(%llu iters x %zu workloads, %llu instrs/eval)...",
               static_cast<unsigned long long>(budget.saIters),
               ctx.suite.size(),
               static_cast<unsigned long long>(budget.evalInstrs));
        ScopedTimer timer("pipeline.explore_seconds");
        ExplorerOptions opts;
        opts.evalInstrs = budget.evalInstrs;
        opts.saIters = budget.saIters;
        opts.threads = budget.threads;
        opts.finalEvalInstrs = budget.finalInstrs;
        opts.checkpointEvery = budget.checkpointEvery;
        if (budget.supervise) {
            opts.supervised = true;
            opts.supervisorOpts = SupervisorOptions::fromEnv();
        }
        Explorer explorer(ctx.suite, opts);
        const auto results = explorer.exploreAll();
        for (const auto &r : results)
            ctx.configs.push_back(r.best);
        if (budget.supervise)
            atomicWriteFile(budget.resultsDir +
                                "/supervisor_report.json",
                            explorer.supervisorReport().toJson());

        storeTable4Cache(ctx.suite, ctx.configs);
        inform("cached customized configurations at %s",
               table4CachePath().c_str());
    } else {
        Metrics::global().counter("cache.table4_hits").add();
    }

    if (!loadTable5Cache(ctx.suite, ctx.configs, ctx.matrix)) {
        Metrics::global().counter("cache.table5_misses").add();
        inform("building cross-configuration matrix "
               "(%zu x %zu, %llu instrs/eval)...",
               ctx.suite.size(), ctx.suite.size(),
               static_cast<unsigned long long>(budget.finalInstrs));
        ScopedTimer timer("pipeline.matrix_seconds");
        if (budget.supervise) {
            Supervisor supervisor(SupervisorOptions::fromEnv());
            std::vector<std::string> missing;
            ctx.matrix = PerfMatrix::buildSupervised(
                ctx.suite, ctx.configs, budget.finalInstrs,
                supervisor, &missing);
            supervisor.writeReport(budget.resultsDir +
                                   "/matrix_supervisor_report.json");
            if (!missing.empty()) {
                // A degraded matrix (NaN rows) must not poison the
                // result cache; rerun without the faulty rows'
                // failures to fill it.
                warn("matrix degraded (%zu quarantined rows); "
                     "not caching", missing.size());
                return ctx;
            }
        } else {
            const std::string partial = budget.checkpointEvery > 0
                ? budget.resultsDir +
                      "/checkpoints/table5_matrix.partial"
                : std::string();
            ctx.matrix = PerfMatrix::build(ctx.suite, ctx.configs,
                                           budget.finalInstrs,
                                           budget.threads, partial);
        }
        storeTable5Cache(ctx.suite, ctx.configs, ctx.matrix);
        inform("cached cross-configuration matrix at %s",
               table5CachePath().c_str());
    } else {
        Metrics::global().counter("cache.table5_hits").add();
    }
    return ctx;
}

} // namespace

const ExperimentContext &
experimentContext()
{
    static const ExperimentContext ctx = computeContext();
    return ctx;
}

} // namespace xps
