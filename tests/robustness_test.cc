/**
 * @file
 * Corruption-injection and cache-validation battery (DESIGN.md §7):
 * torn/garbage/stale CSV caches are recomputed, never half-parsed or
 * crashed on; the Table-4/5 cache manifests invalidate on profile or
 * configuration changes; PerfMatrix::build resumes per cell from a
 * partial file and discards foreign/torn ones; and a differential
 * TEST_P sweep proves, on randomized profiles, that a trace is the
 * generator's stream (ops and predictor meta) and that simulation
 * from a caller-built trace equals simulation from the registry's.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "comm/experiments.hh"
#include "comm/perf_matrix.hh"
#include "explore/checkpoint.hh"
#include "sim/ooo_core.hh"
#include "sim/simulator.hh"
#include "util/atomic_file.hh"
#include "util/csv.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/branch_predictor.hh"
#include "workload/generator.hh"
#include "workload/trace.hh"

using namespace xps;

namespace
{

// Budget::get() resolves XPS_RESULTS_DIR once per process; point it
// at a scratch directory before anything can have touched it, so the
// table4/table5 cache tests never see (or clobber) real results.
const std::string &
resultsDir()
{
    static const std::string dir = [] {
        const auto d = std::filesystem::temp_directory_path() /
                       ("xps_robust_" + std::to_string(::getpid()));
        std::filesystem::create_directories(d);
        ::setenv("XPS_RESULTS_DIR", d.c_str(), 1);
        return d.string();
    }();
    return dir;
}

const bool kEnvReady = !resultsDir().empty();

std::string
slurp(const std::string &path)
{
    std::string content;
    EXPECT_TRUE(readFile(path, content)) << path;
    return content;
}

CsvDoc
sampleDoc()
{
    CsvDoc doc;
    doc.header = {"name", "value"};
    doc.rows = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
    return doc;
}

CsvManifest
sampleManifest()
{
    CsvManifest m;
    m.set("kind", std::string("sample"));
    m.set("budget", uint64_t{42});
    return m;
}

std::string
tmpFile(const std::string &name)
{
    return resultsDir() + "/" + name;
}

} // namespace

// --- csv cache validation --------------------------------------------------

TEST(CsvValidation, AcceptsIntactManifestedFile)
{
    const std::string path = tmpFile("ok.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    CsvDoc doc;
    ASSERT_TRUE(readCsvValidated(path, doc, sampleManifest()));
    EXPECT_EQ(doc.rows, sampleDoc().rows);
    EXPECT_EQ(doc.header, sampleDoc().header);
    // The plain reader still parses it (comments skipped).
    CsvDoc plain;
    ASSERT_TRUE(readCsv(path, plain));
    EXPECT_EQ(plain.rows, sampleDoc().rows);
}

TEST(CsvValidation, RejectsMissingFile)
{
    CsvDoc doc;
    EXPECT_FALSE(readCsvValidated(tmpFile("never_written.csv"), doc,
                                  sampleManifest()));
}

TEST(CsvValidation, RejectsFileWithoutManifest)
{
    const std::string path = tmpFile("bare.csv");
    writeCsv(path, sampleDoc()); // no-manifest writer
    CsvDoc doc;
    EXPECT_FALSE(readCsvValidated(path, doc, sampleManifest()));
}

TEST(CsvValidation, RejectsMismatchedManifest)
{
    const std::string path = tmpFile("stale.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    CsvManifest other = sampleManifest();
    other.set("budget", uint64_t{43});
    CsvDoc doc;
    EXPECT_FALSE(readCsvValidated(path, doc, other));
    // Extra key counts as a mismatch too.
    CsvManifest extra = sampleManifest();
    extra.set("added", std::string("x"));
    EXPECT_FALSE(readCsvValidated(path, doc, extra));
}

TEST(CsvValidation, RejectsEveryTruncationPoint)
{
    const std::string path = tmpFile("torn.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    const std::string full = slurp(path);
    // A crash can tear the file at any byte; all prefixes must be
    // rejected (the final footer line is what proves completeness).
    for (size_t len = 0; len < full.size(); ++len) {
        atomicWriteFile(path, full.substr(0, len));
        CsvDoc doc;
        ASSERT_FALSE(readCsvValidated(path, doc, sampleManifest()))
            << "accepted a " << len << "-byte prefix of "
            << full.size();
    }
}

TEST(CsvValidation, RejectsGarbageWithoutCrashing)
{
    const std::string path = tmpFile("garbage.csv");
    for (const char *garbage :
         {"\x01\x02\x03\xff", "just some text\nwith lines\n",
          "# xps-cache-manifest v1\nnot=even close"}) {
        atomicWriteFile(path, garbage);
        CsvDoc doc;
        EXPECT_FALSE(readCsvValidated(path, doc, sampleManifest()));
    }
}

TEST(CsvValidation, RejectsRowCountMismatch)
{
    const std::string path = tmpFile("shortrows.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    std::string full = slurp(path);
    // Drop one data row but keep the footer: count disagrees.
    const size_t b_at = full.find("b,2\n");
    ASSERT_NE(b_at, std::string::npos);
    full.erase(b_at, 4);
    atomicWriteFile(path, full);
    CsvDoc doc;
    EXPECT_FALSE(readCsvValidated(path, doc, sampleManifest()));
}

// --- csv rejection diagnostics (DESIGN.md §13.4) ---------------------------

TEST(CsvRejectReason, ClassifiesEveryCause)
{
    CsvDoc doc;
    CsvReject why = CsvReject::Malformed;

    // Accepted: the reason is reset to None.
    const std::string ok = tmpFile("why_ok.csv");
    writeCsv(ok, sampleDoc(), sampleManifest());
    EXPECT_TRUE(readCsvValidated(ok, doc, sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::None);

    EXPECT_FALSE(readCsvValidated(tmpFile("why_missing.csv"), doc,
                                  sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::Missing);

    const std::string bare = tmpFile("why_bare.csv");
    writeCsv(bare, sampleDoc()); // no-manifest writer
    EXPECT_FALSE(readCsvValidated(bare, doc, sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::NoManifest);

    // A schema difference is a version mismatch even when other keys
    // differ too: priority version > fingerprint > knob.
    CsvManifest v1 = sampleManifest();
    v1.set("schema", std::string("demo v1"));
    v1.set("profile.gzip", std::string("aaaa"));
    const std::string versioned = tmpFile("why_version.csv");
    writeCsv(versioned, sampleDoc(), v1);
    CsvManifest v2 = v1;
    v2.set("schema", std::string("demo v2"));
    v2.set("profile.gzip", std::string("bbbb"));
    v2.set("budget", uint64_t{43});
    EXPECT_FALSE(readCsvValidated(versioned, doc, v2, why));
    EXPECT_EQ(why, CsvReject::VersionMismatch);

    // Same schema, different profile fingerprint: the cache belongs
    // to different inputs.
    CsvManifest fp = v1;
    fp.set("profile.gzip", std::string("bbbb"));
    fp.set("budget", uint64_t{43});
    EXPECT_FALSE(readCsvValidated(versioned, doc, fp, why));
    EXPECT_EQ(why, CsvReject::FingerprintMismatch);

    // Same schema and fingerprints, different knob.
    CsvManifest knob = v1;
    knob.set("budget", uint64_t{43});
    EXPECT_FALSE(readCsvValidated(versioned, doc, knob, why));
    EXPECT_EQ(why, CsvReject::KnobMismatch);

    // A torn tail (the final newline lost mid-write) is truncation,
    // not garbage.
    const std::string torn = tmpFile("why_torn.csv");
    writeCsv(torn, sampleDoc(), sampleManifest());
    const std::string full = slurp(torn);
    atomicWriteFile(torn, full.substr(0, full.size() - 1));
    EXPECT_FALSE(readCsvValidated(torn, doc, sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::Truncated);

    const std::string garbage = tmpFile("why_garbage.csv");
    atomicWriteFile(garbage, "\x01\x02\x03garbage\nrows,here");
    EXPECT_FALSE(readCsvValidated(garbage, doc, sampleManifest(), why));
    EXPECT_EQ(why, CsvReject::Malformed);
}

TEST(CsvRejectReason, RejectionsBumpTheirCounters)
{
    Metrics &metrics = Metrics::global();
    const uint64_t before =
        metrics.counter("cache.reject_reason.knob_mismatch").get();

    const std::string path = tmpFile("why_counted.csv");
    writeCsv(path, sampleDoc(), sampleManifest());
    CsvManifest other = sampleManifest();
    other.set("budget", uint64_t{1234});
    CsvDoc doc;
    // Both overloads classify and count, so the 3-arg caller's
    // metrics dump explains its "recomputing" warnings too.
    EXPECT_FALSE(readCsvValidated(path, doc, other));
    CsvReject why = CsvReject::None;
    EXPECT_FALSE(readCsvValidated(path, doc, other, why));
    EXPECT_EQ(why, CsvReject::KnobMismatch);
    EXPECT_EQ(
        metrics.counter("cache.reject_reason.knob_mismatch").get(),
        before + 2);
}

// --- table4/table5 cache invalidation --------------------------------------

namespace
{

std::vector<WorkloadProfile>
cacheSuite()
{
    return {profileByName("gzip"), profileByName("twolf")};
}

std::vector<CoreConfig>
cacheConfigs(const std::vector<WorkloadProfile> &suite)
{
    std::vector<CoreConfig> configs;
    for (const auto &p : suite) {
        CoreConfig cfg = CoreConfig::initial();
        cfg.name = p.name;
        configs.push_back(cfg);
    }
    configs[1].l2Cycles += 4; // distinct arch for the second workload
    return configs;
}

} // namespace

TEST(ExperimentCache, Table4RoundTripsAndInvalidates)
{
    const auto suite = cacheSuite();
    const auto configs = cacheConfigs(suite);
    storeTable4Cache(suite, configs);

    std::vector<CoreConfig> loaded;
    ASSERT_TRUE(loadTable4Cache(suite, loaded));
    ASSERT_EQ(loaded.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_TRUE(loaded[i].sameArch(configs[i]));
        EXPECT_EQ(loaded[i].name, configs[i].name);
    }

    // A different suite (profile fingerprints change) must invalidate.
    auto other_suite = suite;
    other_suite[0].workingSetBytes *= 2;
    EXPECT_FALSE(loadTable4Cache(other_suite, loaded));

    // Torn file must invalidate.
    const std::string full = slurp(table4CachePath());
    atomicWriteFile(table4CachePath(),
                    full.substr(0, full.size() / 2));
    EXPECT_FALSE(loadTable4Cache(suite, loaded));

    // Garbage must invalidate, not crash.
    atomicWriteFile(table4CachePath(), "\x7f garbage");
    EXPECT_FALSE(loadTable4Cache(suite, loaded));
}

TEST(ExperimentCache, Table5InvalidatesWhenConfigsChange)
{
    const auto suite = cacheSuite();
    const auto configs = cacheConfigs(suite);
    const PerfMatrix matrix(
        {suite[0].name, suite[1].name},
        {{1.0, 0.5}, {0.25, 2.0}});
    storeTable5Cache(suite, configs, matrix);

    PerfMatrix loaded;
    ASSERT_TRUE(loadTable5Cache(suite, configs, loaded));
    EXPECT_EQ(loaded.ipt(0, 1), 0.5);

    // Any configuration change (fingerprint) must invalidate: a new
    // Table 4 implies the whole matrix is stale.
    auto other_configs = configs;
    other_configs[0].iqSize *= 2;
    EXPECT_FALSE(loadTable5Cache(suite, other_configs, loaded));

    // So must a profile change at fixed configs.
    auto other_suite = suite;
    other_suite[1].fracLoad += 0.01;
    EXPECT_FALSE(loadTable5Cache(other_suite, configs, loaded));
}

// --- PerfMatrix partial-file resume ----------------------------------------

namespace
{

std::vector<WorkloadProfile>
matrixSuite()
{
    return {profileByName("gzip"), profileByName("mcf")};
}

constexpr uint64_t kMatrixInstrs = 5000;

PerfMatrix
goldenMatrix()
{
    static const PerfMatrix m = PerfMatrix::build(
        matrixSuite(), cacheConfigs(matrixSuite()), kMatrixInstrs, 2);
    return m;
}

std::string
partialHeader()
{
    const CsvManifest identity = PerfMatrix::partialIdentity(
        matrixSuite(), cacheConfigs(matrixSuite()), kMatrixInstrs);
    std::ostringstream out;
    out << "xps-matrix-partial v1\n";
    for (const auto &[key, value] : identity.entries)
        out << "m " << key << '=' << value << '\n';
    out << "endm\n";
    return out.str();
}

} // namespace

TEST(PerfMatrixPartial, BuildWithPartialPathMatchesPlainBuild)
{
    const PerfMatrix golden = goldenMatrix();
    const std::string path = tmpFile("matrix0.partial");
    const PerfMatrix built =
        PerfMatrix::build(matrixSuite(), cacheConfigs(matrixSuite()),
                          kMatrixInstrs, 2, path);
    for (size_t w = 0; w < golden.size(); ++w) {
        for (size_t c = 0; c < golden.size(); ++c)
            EXPECT_EQ(built.ipt(w, c), golden.ipt(w, c));
    }
    // Completed build removes its partial file.
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(PerfMatrixPartial, ResumesRecoveredCellsVerbatim)
{
    // Poison one cell in a hand-crafted partial file: if the build
    // really resumes per cell, the poisoned value must flow into the
    // result untouched (cells are never recomputed once recovered).
    const std::string path = tmpFile("matrix1.partial");
    atomicWriteFile(path, partialHeader() + "cell 0 1 " +
                              formatHexDouble(999.0) + "\n");
    const PerfMatrix built =
        PerfMatrix::build(matrixSuite(), cacheConfigs(matrixSuite()),
                          kMatrixInstrs, 1, path);
    EXPECT_EQ(built.ipt(0, 1), 999.0);
    // Untouched cells match the golden build bit-identically.
    const PerfMatrix golden = goldenMatrix();
    EXPECT_EQ(built.ipt(0, 0), golden.ipt(0, 0));
    EXPECT_EQ(built.ipt(1, 0), golden.ipt(1, 0));
    EXPECT_EQ(built.ipt(1, 1), golden.ipt(1, 1));
}

TEST(PerfMatrixPartial, TornTailLineIsDroppedNotMisparsed)
{
    const std::string path = tmpFile("matrix2.partial");
    atomicWriteFile(path, partialHeader() + "cell 1 1 " +
                              formatHexDouble(999.0) + "\ncell 0 1 0x1.8p");
    const PerfMatrix built =
        PerfMatrix::build(matrixSuite(), cacheConfigs(matrixSuite()),
                          kMatrixInstrs, 1, path);
    const PerfMatrix golden = goldenMatrix();
    EXPECT_EQ(built.ipt(1, 1), 999.0);        // intact line kept
    EXPECT_EQ(built.ipt(0, 1), golden.ipt(0, 1)); // torn line redone
}

TEST(PerfMatrixPartial, ForeignManifestIsDiscarded)
{
    // A poisoned partial from a *different* budget must be thrown
    // away wholesale: the result matches the plain build.
    const std::string path = tmpFile("matrix3.partial");
    std::string header = partialHeader();
    const size_t at = header.find("m instrs=");
    ASSERT_NE(at, std::string::npos);
    header.insert(at, "m alien=1\n");
    atomicWriteFile(path, header + "cell 0 1 " +
                              formatHexDouble(999.0) + "\n");
    const PerfMatrix built =
        PerfMatrix::build(matrixSuite(), cacheConfigs(matrixSuite()),
                          kMatrixInstrs, 1, path);
    const PerfMatrix golden = goldenMatrix();
    for (size_t w = 0; w < golden.size(); ++w) {
        for (size_t c = 0; c < golden.size(); ++c)
            EXPECT_EQ(built.ipt(w, c), golden.ipt(w, c));
    }
}

TEST(PerfMatrixPartial, GarbagePartialIsDiscarded)
{
    const std::string path = tmpFile("matrix4.partial");
    atomicWriteFile(path, "complete nonsense\n\x01\x02\x03");
    const PerfMatrix built =
        PerfMatrix::build(matrixSuite(), cacheConfigs(matrixSuite()),
                          kMatrixInstrs, 1, path);
    const PerfMatrix golden = goldenMatrix();
    EXPECT_EQ(built.ipt(0, 0), golden.ipt(0, 0));
    EXPECT_FALSE(std::filesystem::exists(path));
}

// --- differential: trace vs generator, own buffer vs registry --------------

namespace
{

/** Deterministically randomized variant of a base profile: jitter
 *  every continuous knob within its legal neighbourhood. */
WorkloadProfile
randomizedProfile(uint64_t seed)
{
    const auto &bases = spec2000int();
    Rng rng(seed);
    WorkloadProfile p = bases[rng.below(bases.size())];
    p.name = "rand" + std::to_string(seed);
    p.seed = seed;
    auto jitter = [&rng](double v, double lo, double hi) {
        const double f = 0.8 + 0.4 * rng.uniform();
        return std::min(hi, std::max(lo, v * f));
    };
    p.fracLoad = jitter(p.fracLoad, 0.05, 0.35);
    p.fracStore = jitter(p.fracStore, 0.02, 0.20);
    p.fracCondBranch = jitter(p.fracCondBranch, 0.02, 0.20);
    p.meanDepDistance = jitter(p.meanDepDistance, 1.5, 16.0);
    p.fracTwoSrc = jitter(p.fracTwoSrc, 0.1, 0.6);
    p.loadChaseProb = jitter(p.loadChaseProb, 0.0, 0.5);
    p.biasedTakenProb = jitter(p.biasedTakenProb, 0.7, 0.99);
    p.meanLoopTrip = jitter(p.meanLoopTrip, 2.0, 64.0);
    p.heapZipfS = jitter(p.heapZipfS, 0.2, 1.2);
    p.fracHot = jitter(p.fracHot, 0.05, 0.6);
    p.fracStream = jitter(p.fracStream, 0.05, 0.6);
    p.workingSetBytes = std::max<uint64_t>(
        1ULL << 14, p.workingSetBytes >> rng.below(3));
    p.validate();
    return p;
}

class StreamingVsTraced : public testing::TestWithParam<uint64_t>
{
};

} // namespace

TEST_P(StreamingVsTraced, BitIdenticalStats)
{
    // On random profiles: a trace is the generator's stream scored by
    // a live predictor, and a caller-built buffer run on the core gives
    // the same stats as simulate() on the registry's.
    const WorkloadProfile profile = randomizedProfile(GetParam());
    const CoreConfig cfg = CoreConfig::initial();
    SimOptions registry;
    registry.measureInstrs = 6000;
    registry.warmupInstrs = 4000;
    const SimStats a = simulate(profile, cfg, registry);

    const auto own = std::make_shared<const TraceBuffer>(
        profile, registry.streamId,
        registry.traceOps() + kTraceSlackOps);
    const TraceBuffer &trace = *own;
    ASSERT_EQ(trace.meta().size(), trace.size());
    SyntheticWorkload gen(profile, registry.streamId);
    BranchPredictor predictor;
    for (uint64_t i = 0; i < trace.size(); ++i) {
        const MicroOp &op = gen.next();
        uint8_t meta = decodeMicroOp(op);
        if (op.cls == OpClass::CondBranch &&
            !predictor.predict(op.pc, op.taken))
            meta |= kMetaMispredict;
        ASSERT_TRUE(trace.ops()[i] == op) << "op " << i;
        ASSERT_EQ(trace.meta()[i], meta) << "meta byte " << i;
    }
    const SimStats b = OooCore(cfg).run(own, registry.measureInstrs,
                                        registry.effectiveWarmup());

    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.clockNs, b.clockNs);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.robOccupancySum, b.robOccupancySum);
    EXPECT_EQ(a.ipt(), b.ipt());
}

INSTANTIATE_TEST_SUITE_P(RandomProfiles, StreamingVsTraced,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                         34u, 55u, 89u));

// --- checkpoint corruption at the explorer layer is covered in
// --- checkpoint_test.cc; here we double-check the parser never
// --- crashes on fuzzed mutations of a valid file.

TEST(CheckpointFuzz, MutatedCheckpointNeverCrashes)
{
    CsvManifest identity;
    identity.set("k", std::string("v"));
    WorkloadCheckpoint ckpt;
    ckpt.round = 1;
    ckpt.anneal.current = CoreConfig::initial();
    ckpt.anneal.result.best = CoreConfig::initial();
    ckpt.memo = {{"x|y", 1.5}};
    const std::string text =
        serializeWorkloadCheckpoint(ckpt, identity);

    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        std::string mutated = text;
        const size_t pos = rng.below(mutated.size());
        switch (rng.below(3)) {
        case 0:
            mutated[pos] =
                static_cast<char>(rng.below(256)); // flip a byte
            break;
        case 1:
            mutated = mutated.substr(0, pos); // truncate
            break;
        default:
            mutated.insert(pos, "junk"); // inject
            break;
        }
        WorkloadCheckpoint out;
        // Must return (true only if the mutation was benign), never
        // crash or hang.
        parseWorkloadCheckpoint(mutated, identity, out);
    }
}
