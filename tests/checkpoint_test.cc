/**
 * @file
 * The checkpoint/resume determinism battery (DESIGN.md §7):
 * hex-float round-trips, checkpoint serialization round-trips,
 * annealer snapshot/resume bit-identity, and — the core guarantee —
 * kill-mid-run fault injection: an exploration killed at an arbitrary
 * checkpoint write and resumed in a fresh process state must produce
 * results bit-identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include <csignal>

#include "explore/annealer.hh"
#include "explore/checkpoint.hh"
#include "explore/explorer.hh"
#include "explore/search_space.hh"
#include "sim/cells.hh"
#include "util/atomic_file.hh"
#include "util/metrics.hh"
#include "util/shutdown.hh"

using namespace xps;

namespace
{

const UnitTiming &
timing()
{
    static const UnitTiming t;
    return t;
}

const SearchSpace &
space()
{
    static const SearchSpace s(timing());
    return s;
}

std::string
freshDir(const std::string &tag)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("xps_ckpt_" + tag + "_" +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

CsvManifest
testIdentity()
{
    CsvManifest m;
    m.set("kind", std::string("test"));
    m.set("budget", uint64_t{12345});
    return m;
}

/** Strict equality of the fields a caller consumes. */
void
expectResultsIdentical(const std::vector<WorkloadResult> &a,
                       const std::vector<WorkloadResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_TRUE(a[i].best.sameArch(b[i].best))
            << a[i].best.summary() << " vs " << b[i].best.summary();
        EXPECT_EQ(a[i].best.name, b[i].best.name);
        EXPECT_EQ(a[i].bestIpt, b[i].bestIpt); // bit-identical
        EXPECT_EQ(a[i].evaluations, b[i].evaluations);
        EXPECT_EQ(a[i].adoptions, b[i].adoptions);
    }
}

} // namespace

// --- hex-float round-trip --------------------------------------------------

TEST(HexDouble, RoundTripsExactly)
{
    for (double v : {0.0, -0.0, 1.0, 0.3333333333333333,
                     6.02214076e23, 1e-300, -123.456,
                     0.1 + 0.2, std::nextafter(1.0, 2.0)}) {
        double back = 0.0;
        ASSERT_TRUE(parseHexDouble(formatHexDouble(v), back));
        EXPECT_EQ(std::signbit(back), std::signbit(v));
        EXPECT_EQ(back, v);
    }
}

TEST(HexDouble, RejectsGarbage)
{
    double out = 0.0;
    EXPECT_FALSE(parseHexDouble("", out));
    EXPECT_FALSE(parseHexDouble("zzz", out));
    EXPECT_FALSE(parseHexDouble("1.5x", out));
}

// --- checkpoint serialization ----------------------------------------------

namespace
{

WorkloadCheckpoint
sampleWorkloadCheckpoint()
{
    WorkloadCheckpoint ckpt;
    ckpt.round = 2;
    ckpt.evals = 77;
    ckpt.adoptions = 3;
    ckpt.anneal.iteration = 40;
    ckpt.anneal.temp = 0.0123456789;
    ckpt.anneal.rng = {1, 2, 0xdeadbeefULL, UINT64_MAX};
    ckpt.anneal.current = space().initialConfig();
    ckpt.anneal.current.name = "gzip";
    ckpt.anneal.currentScore = 3.14159;
    ckpt.anneal.result.best = space().initialConfig();
    ckpt.anneal.result.bestScore = 3.5;
    ckpt.anneal.result.evaluations = 41;
    ckpt.anneal.result.accepted = 17;
    ckpt.anneal.result.improvementTrace = {{0, 1.0}, {7, 3.5}};
    ckpt.memo = {{"0.33|3|128|64|64|1|2|128|2|32|4|1024|4|128|12",
                  2.25},
                 {"0.25|4|256|64|64|1|2|128|2|32|4|1024|4|128|12",
                  2.5}};
    return ckpt;
}

} // namespace

TEST(CheckpointFormat, WorkloadRoundTrip)
{
    const WorkloadCheckpoint ckpt = sampleWorkloadCheckpoint();
    const std::string text =
        serializeWorkloadCheckpoint(ckpt, testIdentity());
    WorkloadCheckpoint back;
    ASSERT_TRUE(parseWorkloadCheckpoint(text, testIdentity(), back));
    EXPECT_EQ(back.round, ckpt.round);
    EXPECT_EQ(back.evals, ckpt.evals);
    EXPECT_EQ(back.adoptions, ckpt.adoptions);
    EXPECT_EQ(back.anneal.iteration, ckpt.anneal.iteration);
    EXPECT_EQ(back.anneal.temp, ckpt.anneal.temp);
    EXPECT_EQ(back.anneal.rng, ckpt.anneal.rng);
    EXPECT_TRUE(back.anneal.current.sameArch(ckpt.anneal.current));
    EXPECT_EQ(back.anneal.current.name, "gzip");
    EXPECT_EQ(back.anneal.currentScore, ckpt.anneal.currentScore);
    EXPECT_EQ(back.anneal.result.bestScore,
              ckpt.anneal.result.bestScore);
    EXPECT_EQ(back.anneal.result.evaluations,
              ckpt.anneal.result.evaluations);
    EXPECT_EQ(back.anneal.result.accepted,
              ckpt.anneal.result.accepted);
    EXPECT_EQ(back.anneal.result.improvementTrace,
              ckpt.anneal.result.improvementTrace);
    EXPECT_EQ(back.memo, ckpt.memo);
}

TEST(CheckpointFormat, SuiteRoundTrip)
{
    SuiteCheckpoint ckpt;
    ckpt.round = 1;
    ckpt.phase = SuiteCheckpoint::Phase::FinalAdopt;
    ckpt.adoptIndex = 2;
    ckpt.finalIpt = {1.5, 2.5, 0.125};
    for (int i = 0; i < 3; ++i) {
        SuiteWorkloadState ws;
        ws.current = space().initialConfig();
        ws.current.name = "w" + std::to_string(i);
        ws.currentIpt = 1.0 + i;
        ws.evals = 10 + static_cast<uint64_t>(i);
        ws.adoptions = static_cast<uint64_t>(i);
        ws.memo = {{"a|b", 0.5 * i}};
        ckpt.workloads.push_back(ws);
    }
    const std::string text =
        serializeSuiteCheckpoint(ckpt, testIdentity());
    SuiteCheckpoint back;
    ASSERT_TRUE(parseSuiteCheckpoint(text, testIdentity(), back));
    EXPECT_EQ(back.round, ckpt.round);
    EXPECT_EQ(back.phase, ckpt.phase);
    EXPECT_EQ(back.adoptIndex, ckpt.adoptIndex);
    EXPECT_EQ(back.finalIpt, ckpt.finalIpt);
    ASSERT_EQ(back.workloads.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(back.workloads[i].current.sameArch(
            ckpt.workloads[i].current));
        EXPECT_EQ(back.workloads[i].current.name,
                  ckpt.workloads[i].current.name);
        EXPECT_EQ(back.workloads[i].currentIpt,
                  ckpt.workloads[i].currentIpt);
        EXPECT_EQ(back.workloads[i].evals, ckpt.workloads[i].evals);
        EXPECT_EQ(back.workloads[i].adoptions,
                  ckpt.workloads[i].adoptions);
        EXPECT_EQ(back.workloads[i].memo, ckpt.workloads[i].memo);
    }
}

TEST(CheckpointFormat, RejectsForeignManifest)
{
    const std::string text = serializeWorkloadCheckpoint(
        sampleWorkloadCheckpoint(), testIdentity());
    CsvManifest other = testIdentity();
    other.set("budget", uint64_t{54321});
    WorkloadCheckpoint back;
    EXPECT_FALSE(parseWorkloadCheckpoint(text, other, back));
}

TEST(CheckpointFormat, RejectsTruncationAtEveryPrefix)
{
    const std::string text = serializeWorkloadCheckpoint(
        sampleWorkloadCheckpoint(), testIdentity());
    // Any prefix that drops at least the trailing end marker must be
    // rejected, whatever line it happens to cut.
    for (size_t len : {size_t{0}, text.size() / 4, text.size() / 2,
                       text.size() - 2}) {
        WorkloadCheckpoint back;
        EXPECT_FALSE(parseWorkloadCheckpoint(text.substr(0, len),
                                             testIdentity(), back))
            << "accepted a " << len << "-byte prefix";
    }
}

TEST(CheckpointFormat, RejectsGarbage)
{
    WorkloadCheckpoint wc;
    SuiteCheckpoint sc;
    for (const char *garbage :
         {"", "not a checkpoint", "xps-checkpoint v999\nendm\nend\n",
          "\x7f\x45\x4c\x46 binary junk \x01\x02"}) {
        EXPECT_FALSE(
            parseWorkloadCheckpoint(garbage, testIdentity(), wc));
        EXPECT_FALSE(parseSuiteCheckpoint(garbage, testIdentity(), sc));
    }
}

// --- annealer snapshot/resume ----------------------------------------------

namespace
{

struct ResumeParam
{
    uint64_t checkpointEvery;
    uint64_t seed;
};

class AnnealerResume : public testing::TestWithParam<ResumeParam>
{
};

} // namespace

TEST_P(AnnealerResume, SnapshotResumeIsBitIdentical)
{
    // Interrupt the walk at an arbitrary checkpoint, serialize the
    // snapshot through the real text format, resume it in a *fresh*
    // Annealer, and require the outcome bit-identical to the
    // uninterrupted run.
    AnnealParams params;
    params.iterations = 60;
    params.seed = GetParam().seed;
    const auto objective = [](const CoreConfig &cfg) {
        return 1.0 / cfg.clockNs +
               std::log2(static_cast<double>(cfg.robSize)) / 8.0 +
               static_cast<double>(cfg.iqSize) / 256.0;
    };
    const CoreConfig start = space().initialConfig();

    Annealer golden_annealer(space(), objective, params);
    const AnnealResult golden = golden_annealer.run(start);

    // Capture the first checkpoint the hook sees, through
    // serialization, as a crash would leave it on disk.
    std::string frozen;
    {
        Annealer a(space(), objective, params);
        AnnealerState st = a.begin(start);
        a.resume(st, GetParam().checkpointEvery,
                 [&](const AnnealerState &snap) {
                     if (frozen.empty()) {
                         WorkloadCheckpoint ckpt;
                         ckpt.anneal = snap;
                         frozen = serializeWorkloadCheckpoint(
                             ckpt, testIdentity());
                     }
                 });
    }
    ASSERT_FALSE(frozen.empty());

    WorkloadCheckpoint thawed;
    ASSERT_TRUE(
        parseWorkloadCheckpoint(frozen, testIdentity(), thawed));
    EXPECT_EQ(thawed.anneal.iteration, GetParam().checkpointEvery);
    Annealer resumer(space(), objective, params);
    resumer.resume(thawed.anneal);
    const AnnealResult &res = thawed.anneal.result;

    EXPECT_EQ(res.bestScore, golden.bestScore);
    EXPECT_TRUE(res.best.sameArch(golden.best));
    EXPECT_EQ(res.evaluations, golden.evaluations);
    EXPECT_EQ(res.accepted, golden.accepted);
    EXPECT_EQ(res.improvementTrace, golden.improvementTrace);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnnealerResume,
    testing::Values(ResumeParam{1, 3}, ResumeParam{7, 3},
                    ResumeParam{16, 3}, ResumeParam{59, 3},
                    ResumeParam{7, 11}, ResumeParam{16, 99},
                    ResumeParam{32, 1234567}),
    [](const testing::TestParamInfo<ResumeParam> &info) {
        return "k" + std::to_string(info.param.checkpointEvery) +
               "_seed" + std::to_string(info.param.seed);
    });

TEST(AnnealerResumeDeathTest, RejectsStatePastSchedule)
{
    AnnealParams params;
    params.iterations = 10;
    Annealer a(space(),
               [](const CoreConfig &) { return 1.0; }, params);
    AnnealerState st = a.begin(space().initialConfig());
    st.iteration = 11;
    EXPECT_EXIT(a.resume(st), testing::ExitedWithCode(1),
                "past the schedule");
}

// --- explorer: checkpointed == uncheckpointed ------------------------------

namespace
{

ExplorerOptions
miniOpts(uint64_t seed)
{
    ExplorerOptions opts;
    opts.evalInstrs = 4000;
    opts.saIters = 24;
    opts.rounds = 2;
    opts.threads = 1;
    opts.seed = seed;
    opts.finalEvalInstrs = 8000;
    return opts;
}

std::vector<WorkloadProfile>
miniSuite()
{
    return {profileByName("gzip"), profileByName("mcf")};
}

} // namespace

TEST(ExplorerCheckpoint, CheckpointedRunMatchesPlainRun)
{
    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();

    const std::string dir = freshDir("plain_eq");
    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto checked = Explorer(miniSuite(), opts).exploreAll();

    expectResultsIdentical(checked, golden);
    // Completed run must have cleaned its checkpoints up.
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

namespace
{

struct KillParam
{
    int killAfterWrites; ///< _exit(42) at the Nth checkpoint write
    /** False when the kill lands after the last final-phase write,
     *  leaving the resumed run nothing to simulate. Sits in the
     *  padding after killAfterWrites, so the parameter (and the test
     *  names gtest prints for it) stays 16 bytes. */
    bool workLeft = true;
    uint64_t seed;
};

class ExplorerKillResume : public testing::TestWithParam<KillParam>
{
};

/** Death-test body: explore with checkpointing and _exit(42) at the
 *  Nth checkpoint write — no cleanup, no flush, exactly like a
 *  SIGKILL at that instant. */
[[noreturn]] void
exploreAndKill(const std::string &dir, uint64_t seed, int kill_after)
{
    ExplorerOptions opts = miniOpts(seed);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    auto writes = std::make_shared<std::atomic<int>>(0);
    opts.checkpointWrittenHook =
        [writes, kill_after](const std::string &) {
            if (writes->fetch_add(1) + 1 >= kill_after)
                ::_exit(42);
        };
    Explorer(miniSuite(), opts).exploreAll();
    ::_exit(0); // unreachable for the kill points we sweep
}

} // namespace

TEST_P(ExplorerKillResume, ResumeAfterKillIsBitIdentical)
{
    // The golden, uninterrupted result.
    const auto golden =
        Explorer(miniSuite(), miniOpts(GetParam().seed)).exploreAll();
    // Neither the killed child nor the resumed run may read the
    // golden's cells: the resume has to simulate its own.
    clearCells();

    const std::string dir = freshDir(
        "kill" + std::to_string(GetParam().killAfterWrites) + "_s" +
        std::to_string(GetParam().seed));

    // Phase 1 (in a forked child). The default "fast" death-test
    // style is required: the child must inherit this process's `dir`
    // and run from the fork point (no worker threads are live here —
    // every exploreAll joins its pool).
    EXPECT_EXIT(exploreAndKill(dir, GetParam().seed,
                               GetParam().killAfterWrites),
                testing::ExitedWithCode(42), "");

    // Phase 2: resume from whatever files the kill left behind.
    ExplorerOptions opts = miniOpts(GetParam().seed);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    Counter &cells = Metrics::global().counter("cells.misses");
    const uint64_t cells_before = cells.get();
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();

    expectResultsIdentical(resumed, golden);
    if (GetParam().workLeft)
        EXPECT_GT(cells.get() - cells_before, 0u);
    else
        EXPECT_EQ(cells.get() - cells_before, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

// 24 iters / 2 rounds / 2 workloads at cadence 4 => 3 anneal writes
// per workload per round, a suite barrier per round, then the
// final-phase writes (scored, then one per adopting workload): writes
// 1-6 and 8-13 are annealing, 7 and 14 the barriers, 15-17 the final
// phase. w13 resumes into the whole final pass, w16 into its last
// workload, and w17 after it is complete.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ExplorerKillResume,
    testing::Values(KillParam{.killAfterWrites = 1, .seed = 9},
                    KillParam{.killAfterWrites = 3, .seed = 9},
                    KillParam{.killAfterWrites = 7, .seed = 9},
                    KillParam{.killAfterWrites = 13, .seed = 9},
                    KillParam{.killAfterWrites = 16, .seed = 9},
                    KillParam{.killAfterWrites = 17, .workLeft = false,
                              .seed = 9},
                    KillParam{.killAfterWrites = 5, .seed = 21},
                    KillParam{.killAfterWrites = 11, .seed = 33}),
    [](const testing::TestParamInfo<KillParam> &info) {
        return "w" + std::to_string(info.param.killAfterWrites) +
               "_seed" + std::to_string(info.param.seed);
    });

namespace
{

/** Death-test body for the graceful-shutdown contract: SIGTERM
 *  arrives mid-exploration (raised from the first checkpoint write,
 *  so the timing is deterministic) and the run must exit with
 *  kGracefulExitCode at the next checkpoint boundary, leaving a
 *  durable, resumable checkpoint behind. */
[[noreturn]] void
exploreAndSigterm(const std::string &dir, uint64_t seed)
{
    installShutdownHandlers();
    ExplorerOptions opts = miniOpts(seed);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    auto once = std::make_shared<std::atomic<bool>>(false);
    opts.checkpointWrittenHook = [once](const std::string &) {
        if (!once->exchange(true))
            ::raise(SIGTERM);
    };
    Explorer(miniSuite(), opts).exploreAll();
    ::_exit(0); // reachable only if the stop request was ignored
}

} // namespace

TEST(ExplorerGracefulShutdown, SigtermExitsAtBoundaryAndResumes)
{
    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();

    const std::string dir = freshDir("sigterm");
    EXPECT_EXIT(exploreAndSigterm(dir, 5),
                testing::ExitedWithCode(kGracefulExitCode), "");

    // The graceful exit flushed a durable checkpoint...
    ASSERT_FALSE(std::filesystem::is_empty(dir));

    // ...which a fresh run resumes to the bit-identical result.
    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();
    expectResultsIdentical(resumed, golden);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

TEST(ExplorerCheckpoint, StaleCheckpointFromOtherBudgetIsIgnored)
{
    // Leave checkpoints from a *different* exploration (other seed)
    // in the directory: the run must ignore them and still match its
    // own golden result.
    const std::string dir = freshDir("stale");
    EXPECT_EXIT(exploreAndKill(dir, 77, 1),
                testing::ExitedWithCode(42), "");
    ASSERT_FALSE(std::filesystem::is_empty(dir));

    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();
    ExplorerOptions opts = miniOpts(5); // different seed than 77
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();
    expectResultsIdentical(resumed, golden);
    std::filesystem::remove_all(dir);
}

TEST(ExplorerCheckpoint, CheckpointFromWiderFrontierIsNotResumed)
{
    // Explorers once had a multiple-try walk whose frontier width
    // joined the identity as `xps_batch`, ahead of
    // `adoption_margin`. A checkpoint such a walk left behind with
    // width 8 must not be resumed: the run starts fresh and still
    // matches its own golden result.
    const std::string dir = freshDir("wide_frontier");
    EXPECT_EXIT(exploreAndKill(dir, 5, 1), testing::ExitedWithCode(42),
                "");
    const CsvManifest identity =
        Explorer(miniSuite(), miniOpts(5)).checkpointIdentity();
    CsvManifest wide;
    for (const auto &[key, value] : identity.entries) {
        if (key == "adoption_margin")
            wide.set("xps_batch", uint64_t{8});
        wide.set(key, value);
    }
    ASSERT_NE(wide.find("xps_batch"), nullptr);

    int rewritten = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::string content;
        WorkloadCheckpoint wc;
        ASSERT_TRUE(readFile(entry.path().string(), content));
        ASSERT_TRUE(parseWorkloadCheckpoint(content, identity, wc))
            << entry.path();
        const std::string stale = serializeWorkloadCheckpoint(wc, wide);
        EXPECT_FALSE(parseWorkloadCheckpoint(stale, identity, wc));
        atomicWriteFile(entry.path().string(), stale);
        ++rewritten;
    }
    ASSERT_EQ(rewritten, 1);

    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();
    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    Counter &resumes =
        Metrics::global().counter("checkpoint.workload_resumes");
    const uint64_t resumes_before = resumes.get();
    const auto fresh = Explorer(miniSuite(), opts).exploreAll();
    EXPECT_EQ(resumes.get() - resumes_before, 0u);
    expectResultsIdentical(fresh, golden);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

TEST(ExplorerCheckpoint, CorruptCheckpointFilesAreRecomputedNotCrashed)
{
    const std::string dir = freshDir("corrupt");
    const auto golden = Explorer(miniSuite(), miniOpts(5)).exploreAll();

    // Garbage in every checkpoint slot the explorer might read.
    atomicWriteFile(dir + "/suite.ckpt", "total garbage\n\x01\x02");
    atomicWriteFile(dir + "/gzip.ckpt", "xps-checkpoint v1\ntorn");
    atomicWriteFile(dir + "/mcf.ckpt", "");

    ExplorerOptions opts = miniOpts(5);
    opts.checkpointEvery = 4;
    opts.checkpointDir = dir;
    const auto resumed = Explorer(miniSuite(), opts).exploreAll();
    expectResultsIdentical(resumed, golden);
    std::filesystem::remove_all(dir);
}
