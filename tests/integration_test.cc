/**
 * @file
 * Integration tests across modules: the full xp-scalar pipeline at a
 * miniature budget — characterize, explore, cross-evaluate, pick core
 * combinations, assign surrogates — plus determinism of the whole
 * chain, CSV persistence through real files, and the Table 4 cache
 * identity of the real bench pipeline.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "comm/combination.hh"
#include "comm/perf_matrix.hh"
#include "comm/subsetting.hh"
#include "comm/surrogate.hh"
#include "explore/explorer.hh"
#include "obs/json.hh"
#include "util/atomic_file.hh"
#include "util/csv.hh"
#include "workload/characteristics.hh"

using namespace xps;

namespace
{

/** Miniature 3-workload end-to-end pipeline, shared across tests. */
struct MiniPipeline
{
    std::vector<WorkloadProfile> suite;
    std::vector<CoreConfig> configs;
    PerfMatrix matrix;

    MiniPipeline()
    {
        for (const char *name : {"gzip", "mcf", "crafty"})
            suite.push_back(profileByName(name));
        ExplorerOptions opts;
        opts.evalInstrs = 8000;
        opts.saIters = 40;
        opts.rounds = 2;
        opts.threads = 2;
        opts.finalEvalInstrs = 20000;
        Explorer explorer(suite, opts);
        for (const auto &r : explorer.exploreAll())
            configs.push_back(r.best);
        matrix = PerfMatrix::build(suite, configs, 20000, 2);
    }
};

const MiniPipeline &
pipeline()
{
    static const MiniPipeline p;
    return p;
}

} // namespace

TEST(Integration, ExplorationYieldsOneConfigPerWorkload)
{
    const auto &p = pipeline();
    ASSERT_EQ(p.configs.size(), 3u);
    UnitTiming timing;
    for (size_t i = 0; i < p.configs.size(); ++i) {
        EXPECT_EQ(p.configs[i].name, p.suite[i].name);
        EXPECT_EQ(p.configs[i].checkFits(timing), "");
    }
}

TEST(Integration, MatrixDiagonalIsNearDominant)
{
    // Each workload should be at least close to best on its own
    // customized configuration (exact dominance can be broken by
    // sampling noise at miniature budgets).
    const auto &p = pipeline();
    for (size_t w = 0; w < p.matrix.size(); ++w) {
        double best = 0.0;
        for (size_t c = 0; c < p.matrix.size(); ++c)
            best = std::max(best, p.matrix.ipt(w, c));
        EXPECT_GT(p.matrix.ownIpt(w), 0.80 * best)
            << p.matrix.names()[w];
    }
}

TEST(Integration, McfAndCraftyDivergeConfigurationally)
{
    // The memory-bound and the compute-bound workload must not land
    // on the same architecture, and each should suffer on the
    // other's.
    const auto &p = pipeline();
    const size_t mcf = p.matrix.index("mcf");
    const size_t crafty = p.matrix.index("crafty");
    EXPECT_FALSE(p.configs[mcf].sameArch(p.configs[crafty]));
    EXPECT_GT(p.matrix.slowdown(crafty, mcf), 0.05);
}

TEST(Integration, HeterogeneousPairBeatsBestSingle)
{
    const auto &p = pipeline();
    const auto one = bestCombination(p.matrix, 1, Merit::Harmonic);
    const auto two = bestCombination(p.matrix, 2, Merit::Harmonic);
    EXPECT_GE(two.merit.value, one.merit.value);
}

TEST(Integration, SurrogateGraphsRunOnRealMatrix)
{
    const auto &p = pipeline();
    for (Propagation policy :
         {Propagation::None, Propagation::Forward, Propagation::Full}) {
        const SurrogateGraph g = greedySurrogates(p.matrix, policy);
        EXPECT_GE(g.roots.size(), 1u);
        EXPECT_GT(g.harmonicIpt, 0.0);
        EXPECT_LE(g.harmonicIpt,
                  bestCombination(p.matrix, p.matrix.size(),
                                  Merit::Harmonic)
                          .merit.value +
                      1e-9);
    }
}

TEST(Integration, CharacteristicsAndConfigsTellSameMcfStory)
{
    // mcf: biggest working set in raw characteristics AND the lowest
    // achievable throughput even on its customized configuration.
    // (Its *clock* ordering needs the full exploration budget and is
    // checked by the bench harnesses, not at this miniature budget.)
    const auto &p = pipeline();
    const auto chars = measureSuite(p.suite, 40000);
    size_t mcf_idx = p.matrix.index("mcf");
    for (size_t i = 0; i < chars.size(); ++i) {
        if (i == mcf_idx)
            continue;
        EXPECT_GT(chars[mcf_idx].workingSetLog2,
                  chars[i].workingSetLog2);
        EXPECT_LT(p.matrix.ownIpt(mcf_idx), p.matrix.ownIpt(i));
    }
}

TEST(Integration, ConfigPersistenceThroughCsvFile)
{
    const auto &p = pipeline();
    const std::string path =
        std::filesystem::temp_directory_path() / "xps_integ_cfg.csv";
    CsvDoc doc;
    doc.header = CoreConfig::csvHeader();
    for (const auto &cfg : p.configs)
        doc.rows.push_back(cfg.toCsvRow());
    writeCsv(path, doc);

    CsvDoc in;
    ASSERT_TRUE(readCsv(path, in));
    ASSERT_EQ(in.rows.size(), p.configs.size());
    for (size_t i = 0; i < in.rows.size(); ++i) {
        const CoreConfig cfg =
            CoreConfig::fromCsvRow(in.header, in.rows[i]);
        EXPECT_TRUE(cfg.sameArch(p.configs[i]));
    }
    std::filesystem::remove(path);
}

TEST(Integration, MatrixPersistenceThroughCsvFile)
{
    const auto &p = pipeline();
    const std::string path =
        std::filesystem::temp_directory_path() / "xps_integ_mat.csv";
    CsvDoc doc;
    doc.header.push_back("workload");
    for (const auto &n : p.matrix.names())
        doc.header.push_back(n);
    doc.rows = p.matrix.toCsvRows();
    writeCsv(path, doc);

    CsvDoc in;
    ASSERT_TRUE(readCsv(path, in));
    const PerfMatrix back = PerfMatrix::fromCsv(in.header, in.rows);
    for (size_t w = 0; w < p.matrix.size(); ++w) {
        for (size_t c = 0; c < p.matrix.size(); ++c)
            EXPECT_NEAR(back.ipt(w, c), p.matrix.ipt(w, c), 1e-5);
    }
    std::filesystem::remove(path);
}

TEST(Integration, PipelineIsDeterministic)
{
    // Re-run the miniature pipeline with identical options; the
    // customized configurations must be bit-identical.
    std::vector<WorkloadProfile> suite{profileByName("gzip"),
                                       profileByName("crafty")};
    ExplorerOptions opts;
    opts.evalInstrs = 5000;
    opts.saIters = 20;
    opts.rounds = 1;
    opts.threads = 2;
    const auto a = Explorer(suite, opts).exploreAll();
    const auto b = Explorer(suite, opts).exploreAll();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].best.sameArch(b[i].best));
}

TEST(Integration, SubsettingPipelineOnMeasuredCharacteristics)
{
    const auto &p = pipeline();
    const auto chars = measureSuite(p.suite, 30000);
    std::vector<std::vector<double>> features;
    for (const auto &c : chars)
        features.push_back(c.featureVector());
    const auto reps = selectRepresentatives(features, 2);
    EXPECT_EQ(reps.size(), 2u);
    for (size_t r : reps)
        EXPECT_LT(r, p.suite.size());
}

namespace
{

/** counters[name] of an XPS_METRICS_JSON dump; -1 when absent. */
double
dumpedCounter(const std::string &path, const char *name)
{
    std::string text;
    obs::json::Value v;
    if (!readFile(path, text) || !obs::json::parse(text, v))
        return -1;
    const obs::json::Value *counters = v.find("counters");
    return counters ? counters->numberOr(name, -1) : -1;
}

} // namespace

TEST(Integration, DefaultRunRejectsTable4CachedUnderBatchWidth)
{
    // The bench pipeline caches Table 4 under the knobs that shape
    // it. Pipelines that annealed with a multiple-try frontier wrote
    // its width into the manifest as `batch_width`, after
    // `final_instrs`; a default run must recompute such a cache
    // instead of serving it.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("xps_integ_t4_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto run = [&](const std::string &tag) {
        const std::string cmd =
            "env -i XPS_RESULTS_DIR=" + dir +
            " XPS_EVAL_INSTRS=2000 XPS_SA_ITERS=12"
            " XPS_FINAL_INSTRS=4000 XPS_THREADS=2"
            " XPS_CHECKPOINT_EVERY=0 XPS_METRICS_JSON=" + dir + "/" +
            tag + ".json " XPS_TABLE4_BIN " > " + dir + "/" + tag +
            ".log 2>&1";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
        return dir + "/" + tag + ".json";
    };
    EXPECT_EQ(dumpedCounter(run("default"), "cache.table4_misses"), 1);

    // Turn the fresh cache into one written under batch_width=8.
    const std::string cache = dir + "/table4_configs.csv";
    std::string text;
    ASSERT_TRUE(readFile(cache, text));
    const std::string after = "# final_instrs=4000\n";
    const size_t at = text.find(after);
    ASSERT_NE(at, std::string::npos) << text;
    text.insert(at + after.size(), "# batch_width=8\n");
    atomicWriteFile(cache, text);

    const std::string stale = run("stale");
    EXPECT_EQ(dumpedCounter(stale, "cache.table4_misses"), 1);
    EXPECT_EQ(dumpedCounter(stale, "cache.reject_reason.knob_mismatch"),
              1);
    // The recomputed cache is then served as usual.
    EXPECT_EQ(dumpedCounter(run("again"), "cache.table4_hits"), 1);
    std::filesystem::remove_all(dir);
}
