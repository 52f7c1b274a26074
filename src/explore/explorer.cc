#include "explore/explorer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/log.hh"
#include "obs/tracer.hh"
#include "sim/cells.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/shutdown.hh"
#include "workload/trace.hh"

namespace xps
{

namespace
{

/** Stable cache key over the architectural fields of a config. */
std::string
archKey(const CoreConfig &cfg)
{
    std::ostringstream key;
    key << cfg.clockNs << '|' << cfg.width << '|' << cfg.robSize << '|'
        << cfg.iqSize << '|' << cfg.lsqSize << '|' << cfg.schedDepth
        << '|' << cfg.lsqDepth << '|' << cfg.l1Sets << '|'
        << cfg.l1Assoc << '|' << cfg.l1LineBytes << '|' << cfg.l1Cycles
        << '|' << cfg.l2Sets << '|' << cfg.l2Assoc << '|'
        << cfg.l2LineBytes << '|' << cfg.l2Cycles;
    return key.str();
}

/** The options of one explorer evaluation: `instrs` measured after
 *  the default warmup, on stream 0. */
SimOptions
evalOptions(uint64_t instrs)
{
    SimOptions opts;
    opts.measureInstrs = instrs;
    return opts;
}

/** The first config of each architecture in `configs`, in order. */
std::vector<CoreConfig>
distinctArchs(const std::vector<CoreConfig> &configs)
{
    std::vector<CoreConfig> out;
    for (const CoreConfig &cfg : configs) {
        if (std::none_of(out.begin(), out.end(),
                         [&](const CoreConfig &seen) {
                             return seen.sameArch(cfg);
                         }))
            out.push_back(cfg);
    }
    return out;
}

std::vector<std::pair<std::string, double>>
memoToVector(const std::unordered_map<std::string, double> &memo)
{
    return {memo.begin(), memo.end()};
}

} // namespace

Explorer::Explorer(std::vector<WorkloadProfile> suite,
                   ExplorerOptions opts, ExploreBounds bounds)
    : suite_(std::move(suite)), opts_(opts), timing_(),
      space_(timing_, bounds)
{
    if (suite_.empty())
        fatal("Explorer: empty workload suite");
    if (opts_.rounds < 1)
        fatal("Explorer: bad options");
    opts_.threads = resolveThreads(opts_.threads);
    if (opts_.checkpointEvery > 0 && opts_.checkpointDir.empty())
        opts_.checkpointDir = Budget::get().resultsDir + "/checkpoints";
    if (opts_.supervised && opts_.supervisorOpts.workers <= 0)
        opts_.supervisorOpts.workers = opts_.threads;
}

double
Explorer::evaluate(const WorkloadProfile &profile,
                   const CoreConfig &config, uint64_t instrs)
{
    return simulate(profile, config, evalOptions(instrs)).ipt();
}

CsvManifest
Explorer::checkpointIdentity() const
{
    CsvManifest m;
    m.set("schema", std::string("1"));
    m.set("eval_instrs", opts_.evalInstrs);
    m.set("sa_iters", opts_.saIters);
    m.set("rounds", static_cast<uint64_t>(opts_.rounds));
    m.set("seed", opts_.seed);
    m.set("final_eval_instrs", opts_.finalEvalInstrs);
    m.set("adoption_margin", formatHexDouble(opts_.adoptionMargin));
    m.set("gross_adoption_margin",
          formatHexDouble(opts_.grossAdoptionMargin));
    const AnnealParams anneal; // schedule shape is part of identity
    m.set("anneal_initial_temp", formatHexDouble(anneal.initialTemp));
    m.set("anneal_final_temp", formatHexDouble(anneal.finalTemp));
    m.set("anneal_rollback", formatHexDouble(anneal.rollbackFraction));
    const ExploreBounds &b = space_.bounds();
    std::ostringstream bounds;
    bounds << formatHexDouble(b.minClockNs) << ';'
           << formatHexDouble(b.maxClockNs) << ';'
           << b.maxL1CapacityBytes << ';' << b.maxL2CapacityBytes
           << ';' << b.maxSchedDepth << ';' << b.maxLsqDepth << ';'
           << b.maxL1Cycles << ';' << b.maxL2Cycles;
    m.set("bounds", bounds.str());
    std::ostringstream profiles;
    for (size_t w = 0; w < suite_.size(); ++w) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(
                          profileFingerprint(suite_[w])));
        profiles << (w ? ";" : "") << suite_[w].name << ':' << fp;
    }
    m.set("profiles", profiles.str());
    return m;
}

std::string
Explorer::workloadCheckpointPath(size_t w) const
{
    return opts_.checkpointDir + "/" + suite_[w].name + ".ckpt";
}

std::string
Explorer::suiteCheckpointPath() const
{
    return opts_.checkpointDir + "/suite.ckpt";
}

SuiteWorkloadState
Explorer::annealWorkloadRound(
    size_t w, int round, const SuiteWorkloadState &in,
    const CsvManifest &identity, uint64_t itersPerRound) const
{
    const bool ckpt = opts_.checkpointEvery > 0;
    Metrics &metrics = Metrics::global();
    obs::ScopedSpan round_span("explore.round", "explore", [&] {
        return obs::Args()
            .add("workload", suite_[w].name)
            .add("round", round);
    });

    std::unordered_map<std::string, double> memo(in.memo.begin(),
                                                 in.memo.end());
    uint64_t evals = in.evals;
    uint64_t adoptions = in.adoptions;

    auto objective = [&](const CoreConfig &cfg) {
        ProcPool::beat(); // liveness for the supervised mode
        const std::string key = archKey(cfg);
        const auto it = memo.find(key);
        if (it != memo.end())
            return it->second;
        const double ipt = evaluate(suite_[w], cfg, opts_.evalInstrs);
        ++evals;
        memo.emplace(key, ipt);
        return ipt;
    };

    AnnealParams params;
    params.iterations = itersPerRound;
    params.seed = opts_.seed * 0x9e3779b97f4a7c15ULL +
                  w * 1315423911ULL + static_cast<uint64_t>(round);
    params.traceLabel = suite_[w].name;
    Annealer annealer(space_, objective, params);

    AnnealerState st;
    bool resumed = false;
    if (ckpt) {
        std::string content;
        WorkloadCheckpoint wc;
        if (readFile(workloadCheckpointPath(w), content) &&
            parseWorkloadCheckpoint(content, identity, wc) &&
            wc.round == round) {
            st = std::move(wc.anneal);
            memo.clear();
            memo.insert(wc.memo.begin(), wc.memo.end());
            evals = wc.evals;
            adoptions = wc.adoptions;
            resumed = true;
            metrics.counter("checkpoint.workload_resumes").add();
            verbose("explore[%s] resuming round %d at iteration %llu",
                    suite_[w].name.c_str(), round,
                    static_cast<unsigned long long>(st.iteration));
        }
    }
    if (!resumed)
        st = annealer.begin(in.current);

    Annealer::CheckpointHook hook;
    if (ckpt) {
        hook = [&](const AnnealerState &snap) {
            WorkloadCheckpoint wc;
            wc.round = round;
            wc.anneal = snap;
            wc.evals = evals;
            wc.adoptions = adoptions;
            wc.memo = memoToVector(memo);
            atomicWriteFile(workloadCheckpointPath(w),
                            serializeWorkloadCheckpoint(wc, identity),
                            "checkpoint.write");
            metrics.counter("checkpoint.writes").add();
            obs::instant("checkpoint.write", "io", [&] {
                return obs::Args()
                    .add("workload", suite_[w].name)
                    .add("round", round)
                    .add("iteration", snap.iteration);
            });
            verbose("explore[%s] checkpoint: round %d iteration "
                    "%llu/%llu", suite_[w].name.c_str(), round,
                    static_cast<unsigned long long>(snap.iteration),
                    static_cast<unsigned long long>(itersPerRound));
            if (opts_.checkpointWrittenHook)
                opts_.checkpointWrittenHook(workloadCheckpointPath(w));
        };
    }
    annealer.resume(st, opts_.checkpointEvery, hook);

    SuiteWorkloadState out;
    out.current = st.result.best;
    out.currentIpt = st.result.bestScore;
    out.evals = evals;
    out.adoptions = adoptions;
    out.memo = memoToVector(memo);
    return out;
}

std::vector<WorkloadResult>
Explorer::exploreAll()
{
    const size_t n = suite_.size();
    const bool ckpt = opts_.checkpointEvery > 0;
    // The identity manifest also validates supervised worker result
    // files, so it is needed whenever either machinery is on.
    const CsvManifest identity = (ckpt || opts_.supervised)
                                     ? checkpointIdentity()
                                     : CsvManifest{};
    Metrics &metrics = Metrics::global();
    supervisorReport_ = SupervisorReport{};
    obs::setProcessName(opts_.supervised ? "explorer/supervisor"
                                         : "explorer");
    obs::ScopedSpan explore_span("explore.all", "explore", [&] {
        return obs::Args()
            .add("workloads", static_cast<uint64_t>(n))
            .add("rounds", opts_.rounds)
            .add("supervised", opts_.supervised ? 1 : 0);
    });
    const auto wall_start = std::chrono::steady_clock::now();
    auto elapsed_s = [&] {
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - wall_start;
        return dt.count();
    };

    // With checkpointing on, SIGINT/SIGTERM become a request to stop
    // at the next durable boundary (annealer checkpoint cadence or
    // the round barrier) instead of dying with work in flight; the
    // run exits kGracefulExitCode and a rerun resumes bit-identical.
    if (ckpt)
        installShutdownHandlers();

    std::vector<WorkloadResult> results(n);
    std::vector<CoreConfig> current(n, space_.initialConfig());
    std::vector<double> current_ipt(n, 0.0);
    // Per-workload evaluation memo (each is touched by one worker at
    // a time; adoption runs single-threaded between rounds).
    std::vector<std::unordered_map<std::string, double>> memo(n);
    std::vector<std::atomic<uint64_t>> evals(n);
    for (auto &e : evals)
        e.store(0);
    std::vector<uint64_t> adoptions(n, 0);

    const uint64_t iters_per_round =
        std::max<uint64_t>(1, opts_.saIters /
                              static_cast<uint64_t>(opts_.rounds));

    // --- resume the round-barrier state ------------------------------------
    int start_round = 0;
    SuiteCheckpoint::Phase phase = SuiteCheckpoint::Phase::Anneal;
    uint64_t adopt_index = 0;
    std::vector<double> final_ipt(n, 0.0);
    bool have_final_ipt = false;
    if (ckpt) {
        std::string content;
        SuiteCheckpoint sc;
        if (readFile(suiteCheckpointPath(), content)) {
            if (parseSuiteCheckpoint(content, identity, sc) &&
                sc.workloads.size() == n) {
                for (size_t w = 0; w < n; ++w) {
                    current[w] = sc.workloads[w].current;
                    current_ipt[w] = sc.workloads[w].currentIpt;
                    evals[w].store(sc.workloads[w].evals);
                    adoptions[w] = sc.workloads[w].adoptions;
                    memo[w].insert(sc.workloads[w].memo.begin(),
                                   sc.workloads[w].memo.end());
                }
                start_round = sc.round;
                phase = sc.phase;
                adopt_index = sc.adoptIndex;
                if (phase != SuiteCheckpoint::Phase::Anneal) {
                    final_ipt = sc.finalIpt;
                    have_final_ipt = final_ipt.size() == n;
                }
                metrics.counter("checkpoint.suite_resumes").add();
                inform("resuming exploration from %s (round %d/%d)",
                       suiteCheckpointPath().c_str(), start_round,
                       opts_.rounds);
            } else {
                warn("ignoring stale or corrupt checkpoint %s",
                     suiteCheckpointPath().c_str());
                metrics.counter("checkpoint.rejected").add();
            }
        }
    }

    auto write_suite_ckpt = [&](int round, SuiteCheckpoint::Phase ph,
                                uint64_t adopt_idx) {
        if (!ckpt)
            return;
        SuiteCheckpoint sc;
        sc.round = round;
        sc.phase = ph;
        sc.adoptIndex = adopt_idx;
        if (ph != SuiteCheckpoint::Phase::Anneal)
            sc.finalIpt = final_ipt;
        sc.workloads.resize(n);
        for (size_t w = 0; w < n; ++w) {
            sc.workloads[w].current = current[w];
            sc.workloads[w].currentIpt = current_ipt[w];
            sc.workloads[w].evals = evals[w].load();
            sc.workloads[w].adoptions = adoptions[w];
            sc.workloads[w].memo = memoToVector(memo[w]);
        }
        atomicWriteFile(suiteCheckpointPath(),
                        serializeSuiteCheckpoint(sc, identity));
        metrics.counter("checkpoint.writes").add();
        obs::instant("checkpoint.write", "io", [&] {
            return obs::Args()
                .add("workload", "suite")
                .add("round", round)
                .add("phase", static_cast<int>(ph));
        });
        if (opts_.checkpointWrittenHook)
            opts_.checkpointWrittenHook(suiteCheckpointPath());
    };

    auto cached_eval = [&](size_t w, const CoreConfig &cfg) {
        auto &m = memo[w];
        const std::string key = archKey(cfg);
        const auto it = m.find(key);
        if (it != m.end())
            return it->second;
        const double ipt =
            simulateCell(suite_[w], cfg, evalOptions(opts_.evalInstrs))
                .ipt();
        evals[w].fetch_add(1, std::memory_order_relaxed);
        m.emplace(key, ipt);
        return ipt;
    };

    if (phase == SuiteCheckpoint::Phase::Anneal &&
        start_round < opts_.rounds) {
        // Materialize each workload's stream once, before any worker
        // starts (or forks): every evaluation then replays the
        // registry's buffer (measure + default warmup = 2 * evalInstrs
        // ops) instead of regenerating it. Skipped by a resume
        // straight into the final phase.
        for (size_t w = 0; w < n; ++w)
            sharedTrace(suite_[w], 0, 2 * opts_.evalInstrs);
        ScopedTimer timer("explore.anneal_seconds");
        std::unique_ptr<Supervisor> sup;
        if (opts_.supervised)
            sup = std::make_unique<Supervisor>(opts_.supervisorOpts);
        // Workloads whose annealing job was quarantined: their
        // configuration is frozen at the last completed round and the
        // suite degrades gracefully instead of aborting.
        std::vector<bool> frozen(n, false);

        auto snapshotState = [&](size_t w) {
            SuiteWorkloadState in;
            in.current = current[w];
            in.currentIpt = current_ipt[w];
            in.evals = evals[w].load();
            in.adoptions = adoptions[w];
            in.memo = memoToVector(memo[w]);
            return in;
        };
        auto installState = [&](size_t w, const SuiteWorkloadState &out) {
            current[w] = out.current;
            current_ipt[w] = out.currentIpt;
            evals[w].store(out.evals);
            adoptions[w] = out.adoptions;
            memo[w] = std::unordered_map<std::string, double>(
                out.memo.begin(), out.memo.end());
        };

        for (int round = start_round; round < opts_.rounds; ++round) {
            if (!sup) {
                // Thread pool: each workload is touched by exactly one
                // worker, so snapshot/install need no locking.
                std::atomic<size_t> next{0};
                std::atomic<size_t> done_count{0};
                auto worker = [&]() {
                    for (size_t w = next.fetch_add(1); w < n;
                         w = next.fetch_add(1)) {
                        const SuiteWorkloadState out =
                            annealWorkloadRound(w, round,
                                                snapshotState(w),
                                                identity,
                                                iters_per_round);
                        installState(w, out);
                        const size_t done = done_count.fetch_add(1) + 1;
                        verbose("explore[%s] round %d: best IPT %.3f "
                                "(%s)", suite_[w].name.c_str(), round,
                                out.currentIpt,
                                out.current.summary().c_str());
                        inform("explore progress: round %d/%d, %zu/%zu "
                               "workloads, %llu evaluations, %.1fs",
                               round + 1, opts_.rounds, done, n,
                               static_cast<unsigned long long>(
                                   metrics
                                       .counter("anneal.evaluations")
                                       .get()),
                               elapsed_s());
                    }
                };
                std::vector<std::thread> pool;
                const int nthreads =
                    std::min<int>(opts_.threads, static_cast<int>(n));
                pool.reserve(static_cast<size_t>(nthreads));
                for (int t = 0; t < nthreads; ++t)
                    pool.emplace_back(worker);
                for (auto &t : pool)
                    t.join();
            } else {
                // Supervised process pool: each workload-round runs in
                // a forked worker that inherits the suite state by
                // fork and publishes its post-round state through an
                // identity-validated result file; a crashed or hung
                // worker is retried (resuming from its checkpoint
                // when one exists) and can never publish a torn cell.
                std::vector<ProcJob> jobs;
                std::vector<size_t> job_workload;
                for (size_t w = 0; w < n; ++w) {
                    if (frozen[w])
                        continue;
                    ProcJob job;
                    job.name = suite_[w].name + ".round" +
                               std::to_string(round);
                    const std::string result_path =
                        sup->stagingPath(job.name + ".result");
                    job.run = [this, w, round, identity,
                               iters_per_round, result_path,
                               &snapshotState]() {
                        const SuiteWorkloadState out =
                            annealWorkloadRound(w, round,
                                                snapshotState(w),
                                                identity,
                                                iters_per_round);
                        SuiteCheckpoint sc;
                        sc.round = round;
                        sc.workloads.push_back(out);
                        atomicWriteFile(result_path,
                                        serializeSuiteCheckpoint(
                                            sc, identity),
                                        "worker.result");
                        return 0;
                    };
                    job.onSuccess = [this, w, round, identity,
                                     result_path, &installState,
                                     &elapsed_s]() {
                        std::string content;
                        SuiteCheckpoint sc;
                        if (!readFile(result_path, content) ||
                            !parseSuiteCheckpoint(content, identity,
                                                  sc) ||
                            sc.round != round ||
                            sc.workloads.size() != 1)
                            return false;
                        installState(w, sc.workloads[0]);
                        std::error_code ec;
                        std::filesystem::remove(result_path, ec);
                        inform("explore progress: round %d/%d, %s "
                               "merged, %.1fs", round + 1, opts_.rounds,
                               suite_[w].name.c_str(), elapsed_s());
                        return true;
                    };
                    jobs.push_back(std::move(job));
                    job_workload.push_back(w);
                }
                const std::vector<ProcJobOutcome> outcomes =
                    sup->run(jobs);
                for (size_t j = 0; j < outcomes.size(); ++j) {
                    if (outcomes[j].status ==
                        ProcJobOutcome::Status::Quarantined) {
                        frozen[job_workload[j]] = true;
                        warn("explore[%s]: round %d quarantined; "
                             "freezing its configuration at the last "
                             "completed round",
                             suite_[job_workload[j]].name.c_str(),
                             round);
                    }
                }
            }

            // Cross-adoption (§4.1) *between* rounds: a workload that
            // performs clearly better on another workload's incumbent
            // takes it as its own and keeps annealing from there in
            // the next round, exactly as in the paper — so adopted
            // configurations re-specialize instead of collapsing the
            // suite onto a few shared architectures. No adoption
            // after the final round.
            if (round < opts_.rounds - 1) {
                ScopedTimer adopt_timer("explore.adopt_seconds");
                obs::ScopedSpan adopt_span(
                    "explore.adopt", "explore", [&] {
                        return obs::Args().add("round", round);
                    });
                // Every config the serial loop below can offer a
                // workload is one of the incumbents it starts from:
                // simulate the ones memo[w] lacks in parallel first.
                const std::vector<CoreConfig> incumbents =
                    distinctArchs(current);
                std::vector<Cell> cells;
                for (size_t w = 0; w < n; ++w) {
                    for (const CoreConfig &cfg : incumbents) {
                        if (!memo[w].count(archKey(cfg)))
                            cells.push_back(
                                {suite_[w], cfg,
                                 evalOptions(opts_.evalInstrs)});
                    }
                }
                prefetchCells(cells, opts_.threads);
                for (size_t w = 0; w < n; ++w) {
                    for (size_t other = 0; other < n; ++other) {
                        if (other == w)
                            continue;
                        if (current[other].sameArch(current[w]))
                            continue;
                        const double ipt =
                            cached_eval(w, current[other]);
                        if (ipt > current_ipt[w] *
                                      (1.0 + opts_.adoptionMargin)) {
                            current[w] = current[other];
                            current_ipt[w] = ipt;
                            ++adoptions[w];
                            metrics.counter("explore.adoptions").add();
                            obs::log::event(
                                obs::log::Level::Info, "explore",
                                "round adoption", [&] {
                                    return obs::Args()
                                        .add("round", round)
                                        .add("workload",
                                             suite_[w].name)
                                        .add("from",
                                             suite_[other].name)
                                        .add("ipt", ipt);
                                });
                        }
                    }
                }
            }
            // Round barrier: commit the post-adoption suite state in
            // one atomic file, so a crash never mixes pre- and
            // post-adoption state across workloads.
            write_suite_ckpt(round + 1, SuiteCheckpoint::Phase::Anneal,
                             0);
            inform("exploration round %d/%d done", round + 1,
                   opts_.rounds);
            // The supervised parent never enters the annealer itself,
            // so its stop point is here, right after the barrier
            // commit (threaded runs usually exit inside the annealer
            // first).
            if (ckpt && stopRequested()) {
                inform("explore: stop requested; round %d barrier is "
                       "durable, exiting gracefully", round + 1);
                std::exit(kGracefulExitCode);
            }
        }
        if (sup)
            supervisorReport_ = sup->report();
    }

    // Final pass at the (longer) final evaluation length: score every
    // configuration, and apply the paper's adoption rule one last time
    // for gross violations only — a workload whose own annealing ended
    // in a clearly inferior local optimum takes the better foreign
    // configuration, while small noise-level differences keep the
    // customized configurations distinct.
    ScopedTimer final_timer("explore.final_seconds");
    obs::ScopedSpan final_span("explore.final", "explore");
    const uint64_t score_instrs = opts_.finalEvalInstrs > 0
                                      ? opts_.finalEvalInstrs
                                      : opts_.evalInstrs;
    // The serial scoring and gross-adoption loops below only ever
    // offer a workload one of the configs they start from: simulate
    // those cells in parallel first, growing each final-length trace
    // on the pool, and let the loops read the memo.
    {
        const std::vector<CoreConfig> finalists = distinctArchs(current);
        std::vector<Cell> cells;
        for (size_t w = have_final_ipt ? adopt_index : 0; w < n; ++w) {
            for (const CoreConfig &cfg : finalists)
                cells.push_back(
                    {suite_[w], cfg, evalOptions(score_instrs)});
        }
        prefetchCells(cells, opts_.threads);
    }
    auto score = [&](size_t w, const CoreConfig &cfg) {
        evals[w].fetch_add(1, std::memory_order_relaxed);
        return simulateCell(suite_[w], cfg, evalOptions(score_instrs))
            .ipt();
    };
    if (!have_final_ipt) {
        for (size_t w = 0; w < n; ++w)
            final_ipt[w] = score(w, current[w]);
        write_suite_ckpt(opts_.rounds,
                         SuiteCheckpoint::Phase::FinalScored, 0);
        adopt_index = 0;
    }
    for (size_t w = adopt_index; w < n; ++w) {
        for (size_t other = 0; other < n; ++other) {
            if (other == w || current[other].sameArch(current[w]))
                continue;
            const double ipt = score(w, current[other]);
            if (ipt > final_ipt[w] *
                          (1.0 + opts_.grossAdoptionMargin)) {
                current[w] = current[other];
                final_ipt[w] = ipt;
                ++adoptions[w];
                metrics.counter("explore.adoptions").add();
            }
        }
        write_suite_ckpt(opts_.rounds,
                         SuiteCheckpoint::Phase::FinalAdopt, w + 1);
    }

    for (size_t w = 0; w < n; ++w) {
        results[w].workload = suite_[w].name;
        results[w].best = current[w];
        results[w].best.name = suite_[w].name;
        results[w].bestIpt = final_ipt[w];
        results[w].evaluations = evals[w].load();
        results[w].adoptions = adoptions[w];
    }

    // Exploration complete: the checkpoints have served their purpose
    // and must not shadow a future (possibly different) run.
    if (ckpt) {
        std::error_code ec;
        for (size_t w = 0; w < n; ++w)
            std::filesystem::remove(workloadCheckpointPath(w), ec);
        std::filesystem::remove(suiteCheckpointPath(), ec);
        metrics.counter("checkpoint.completed_runs").add();
    }
    return results;
}

} // namespace xps
