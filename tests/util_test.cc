/**
 * @file
 * Unit tests for src/util: RNG distributions, statistics helpers,
 * table rendering, CSV round-trips, environment knobs and the README
 * knob inventory.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "util/atomic_file.hh"
#include "util/csv.hh"
#include "util/env.hh"
#include "util/rng.hh"
#include "util/stats_util.hh"
#include "util/table.hh"

using namespace xps;

// --- Rng -----------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double min = 1.0, max = 0.0, sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        min = std::min(min, u);
        max = std::max(max, u);
        sum += u;
    }
    EXPECT_LT(min, 0.01);
    EXPECT_GT(max, 0.99);
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(8);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(2.5, 7.5);
        ASSERT_GE(u, 2.5);
        ASSERT_LT(u, 7.5);
    }
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = rng.below(13);
        ASSERT_LT(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 13u); // all values reachable
}

TEST(Rng, RangeInclusive)
{
    Rng rng(10);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(12);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatchesParameter)
{
    Rng rng(13);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // mean of geometric (failures before success) = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, GeometricDegenerate)
{
    Rng rng(14);
    EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, ZipfStaysInRange)
{
    Rng rng(15);
    for (double s : {0.3, 0.8, 1.0, 1.3}) {
        for (int i = 0; i < 10000; ++i)
            ASSERT_LT(rng.zipf(100, s), 100u);
    }
}

TEST(Rng, ZipfSingleElement)
{
    Rng rng(16);
    EXPECT_EQ(rng.zipf(1, 0.9), 0u);
}

TEST(Rng, ZipfSkewConcentratesMass)
{
    // Higher skew -> more draws land in the top ranks.
    Rng rng(17);
    auto top_fraction = [&](double s) {
        int top = 0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            top += rng.zipf(4096, s) < 64;
        return static_cast<double>(top) / n;
    };
    const double lo = top_fraction(0.4);
    const double hi = top_fraction(1.3);
    EXPECT_GT(hi, lo + 0.2);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(18);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(19);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

// --- stats ---------------------------------------------------------------

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, HarmonicMeanKnownValue)
{
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0, 4.0}), 3.0 / 1.75, 1e-12);
}

TEST(Stats, HarmonicLessThanArithmetic)
{
    const std::vector<double> xs{0.5, 1.5, 2.5, 9.0};
    EXPECT_LT(harmonicMean(xs), mean(xs));
    EXPECT_LT(geometricMean(xs), mean(xs));
    EXPECT_GT(geometricMean(xs), harmonicMean(xs));
}

TEST(Stats, MeansEqualForConstantVector)
{
    const std::vector<double> xs{2.0, 2.0, 2.0};
    EXPECT_NEAR(harmonicMean(xs), 2.0, 1e-12);
    EXPECT_NEAR(geometricMean(xs), 2.0, 1e-12);
    EXPECT_NEAR(mean(xs), 2.0, 1e-12);
}

TEST(StatsDeathTest, HarmonicRejectsNonPositive)
{
    EXPECT_EXIT(harmonicMean({1.0, 0.0}),
                testing::ExitedWithCode(1), "non-positive");
}

TEST(Stats, Stddev)
{
    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0}), 1.0, 1e-12);
}

TEST(Stats, MinMaxNormalize)
{
    const auto out = minMaxNormalize({1.0, 3.0, 5.0}, 10.0);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 5.0);
    EXPECT_DOUBLE_EQ(out[2], 10.0);
}

TEST(Stats, MinMaxNormalizeConstantVector)
{
    const auto out = minMaxNormalize({4.0, 4.0}, 10.0);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(Stats, ZScoreNormalize)
{
    const auto out = zScoreNormalize({1.0, 3.0});
    EXPECT_NEAR(out[0], -1.0, 1e-12);
    EXPECT_NEAR(out[1], 1.0, 1e-12);
}

TEST(Stats, EuclideanDistance)
{
    EXPECT_DOUBLE_EQ(euclideanDistance({0.0, 0.0}, {3.0, 4.0}), 5.0);
    EXPECT_DOUBLE_EQ(euclideanDistance({1.0}, {1.0}), 0.0);
}

TEST(StatsDeathTest, EuclideanRejectsLengthMismatch)
{
    EXPECT_EXIT(euclideanDistance({1.0}, {1.0, 2.0}),
                testing::ExitedWithCode(1), "mismatch");
}

TEST(Stats, NormalizeColumns)
{
    std::vector<std::vector<double>> rows{{0.0, 10.0}, {10.0, 20.0}};
    normalizeColumns(rows, 1.0);
    EXPECT_DOUBLE_EQ(rows[0][0], 0.0);
    EXPECT_DOUBLE_EQ(rows[1][0], 1.0);
    EXPECT_DOUBLE_EQ(rows[0][1], 0.0);
    EXPECT_DOUBLE_EQ(rows[1][1], 1.0);
}

// --- table ---------------------------------------------------------------

TEST(Table, RendersAlignedColumns)
{
    AsciiTable table({"a", "bbbb"});
    table.addRow({"xx", "y"});
    const std::string out = table.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    EXPECT_NE(out.find("xx"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CellByCellConstruction)
{
    AsciiTable table({"x", "y", "z"});
    table.beginRow();
    table.cell("s");
    table.cell(1.2345, 2);
    table.cell(static_cast<long long>(42));
    EXPECT_EQ(table.rows(), 1u);
    EXPECT_NE(table.render().find("1.23"), std::string::npos);
    EXPECT_NE(table.render().find("42"), std::string::npos);
}

TEST(TableDeathTest, RowWidthMismatch)
{
    AsciiTable table({"a", "b"});
    EXPECT_EXIT(table.addRow({"only-one"}),
                testing::ExitedWithCode(1), "row has");
}

TEST(Table, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512");
    EXPECT_EQ(formatBytes(8192), "8K");
    EXPECT_EQ(formatBytes(2ULL << 20), "2M");
    EXPECT_EQ(formatBytes(1536), "1536"); // not a whole K multiple
}

TEST(Table, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

// --- csv -----------------------------------------------------------------

TEST(Csv, RoundTrip)
{
    const std::string path =
        std::filesystem::temp_directory_path() / "xps_csv_test.csv";
    CsvDoc doc;
    doc.header = {"name", "value"};
    doc.rows = {{"alpha", "1.5"}, {"beta", "2"}};
    writeCsv(path, doc);

    CsvDoc in;
    ASSERT_TRUE(readCsv(path, in));
    EXPECT_EQ(in.header, doc.header);
    EXPECT_EQ(in.rows, doc.rows);
    std::filesystem::remove(path);
}

TEST(Csv, MissingFileReturnsFalse)
{
    CsvDoc doc;
    EXPECT_FALSE(readCsv("/nonexistent/path/file.csv", doc));
}

TEST(Csv, ColumnLookup)
{
    CsvDoc doc;
    doc.header = {"a", "b", "c"};
    EXPECT_EQ(doc.column("b"), 1u);
}

TEST(CsvDeathTest, ColumnLookupUnknown)
{
    CsvDoc doc;
    doc.header = {"a"};
    EXPECT_EXIT(doc.column("zz"), testing::ExitedWithCode(1),
                "no column");
}

TEST(CsvDeathTest, RejectsCellNeedingQuotes)
{
    const std::string path =
        std::filesystem::temp_directory_path() / "xps_csv_bad.csv";
    CsvDoc doc;
    doc.header = {"a"};
    doc.rows = {{"has,comma"}};
    EXPECT_EXIT(writeCsv(path, doc), testing::ExitedWithCode(1),
                "quoting");
}

TEST(Csv, CreatesParentDirectories)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "xps_csv_nested" / "deep";
    const std::string path = dir / "f.csv";
    std::filesystem::remove_all(
        std::filesystem::temp_directory_path() / "xps_csv_nested");
    CsvDoc doc;
    doc.header = {"x"};
    doc.rows = {{"1"}};
    writeCsv(path, doc);
    CsvDoc in;
    EXPECT_TRUE(readCsv(path, in));
    std::filesystem::remove_all(
        std::filesystem::temp_directory_path() / "xps_csv_nested");
}

// --- env -----------------------------------------------------------------

TEST(Env, IntDefaultAndParse)
{
    unsetenv("XPS_TEST_INT");
    EXPECT_EQ(envInt("XPS_TEST_INT", 17), 17);
    setenv("XPS_TEST_INT", "42", 1);
    EXPECT_EQ(envInt("XPS_TEST_INT", 17), 42);
    unsetenv("XPS_TEST_INT");
}

// Malformed numeric knobs must degrade (warn once + documented
// default), never crash the run — one test per malformed shape.
TEST(Env, IntGarbageFallsBackToDefault)
{
    setenv("XPS_TEST_BAD", "not-a-number", 1);
    EXPECT_EQ(envInt("XPS_TEST_BAD", 7), 7);
    unsetenv("XPS_TEST_BAD");
}

TEST(Env, IntTrailingGarbageFallsBackToDefault)
{
    setenv("XPS_TEST_TRAIL", "12abc", 1);
    EXPECT_EQ(envInt("XPS_TEST_TRAIL", 7), 7);
    setenv("XPS_TEST_TRAIL", "3.5", 1); // floats are not counts
    EXPECT_EQ(envInt("XPS_TEST_TRAIL", 7), 7);
    unsetenv("XPS_TEST_TRAIL");
}

TEST(Env, IntOverflowFallsBackToDefault)
{
    setenv("XPS_TEST_OVF", "99999999999999999999999", 1);
    EXPECT_EQ(envInt("XPS_TEST_OVF", 3), 3);
    setenv("XPS_TEST_OVF", "-99999999999999999999999", 1);
    EXPECT_EQ(envInt("XPS_TEST_OVF", 3), 3);
    unsetenv("XPS_TEST_OVF");
}

TEST(Env, IntEmptyValueIsUnset)
{
    setenv("XPS_TEST_EMPTY", "", 1);
    EXPECT_EQ(envInt("XPS_TEST_EMPTY", 5), 5);
    unsetenv("XPS_TEST_EMPTY");
}

TEST(Env, IntAcceptsNegative)
{
    setenv("XPS_TEST_NEG", "-5", 1);
    EXPECT_EQ(envInt("XPS_TEST_NEG", 0), -5);
    unsetenv("XPS_TEST_NEG");
}

TEST(Env, UIntRejectsNegative)
{
    setenv("XPS_TEST_UNEG", "-5", 1);
    EXPECT_EQ(envUInt("XPS_TEST_UNEG", 9), 9u);
    unsetenv("XPS_TEST_UNEG");
}

TEST(Env, UIntGarbageAndOverflowFallBack)
{
    setenv("XPS_TEST_UBAD", "junk", 1);
    EXPECT_EQ(envUInt("XPS_TEST_UBAD", 9), 9u);
    setenv("XPS_TEST_UBAD", "18446744073709551616", 1);
    EXPECT_EQ(envUInt("XPS_TEST_UBAD", 9), 9u);
    unsetenv("XPS_TEST_UBAD");
}

TEST(Env, UIntParsesValid)
{
    setenv("XPS_TEST_UOK", "12", 1);
    EXPECT_EQ(envUInt("XPS_TEST_UOK", 9), 12u);
    unsetenv("XPS_TEST_UOK");
}

TEST(Env, StringDefault)
{
    unsetenv("XPS_TEST_STR");
    EXPECT_EQ(envString("XPS_TEST_STR", "dflt"), "dflt");
    setenv("XPS_TEST_STR", "value", 1);
    EXPECT_EQ(envString("XPS_TEST_STR", "dflt"), "value");
    unsetenv("XPS_TEST_STR");
}

TEST(Env, ResolveThreadsExplicitRequestWins)
{
    setenv("XPS_THREADS", "3", 1);
    EXPECT_EQ(resolveThreads(5), 5);
    unsetenv("XPS_THREADS");
}

TEST(Env, ResolveThreadsUsesEnvWhenUnrequested)
{
    setenv("XPS_THREADS", "3", 1);
    EXPECT_EQ(resolveThreads(0), 3);
    EXPECT_EQ(resolveThreads(-4), 3); // negative request = unrequested
    unsetenv("XPS_THREADS");
}

TEST(Env, ResolveThreadsIgnoresNonPositiveEnv)
{
    setenv("XPS_THREADS", "0", 1);
    EXPECT_GE(resolveThreads(0), 1);
    setenv("XPS_THREADS", "-2", 1);
    EXPECT_GE(resolveThreads(0), 1);
    unsetenv("XPS_THREADS");
}

TEST(Env, ResolveThreadsAlwaysPositive)
{
    unsetenv("XPS_THREADS");
    EXPECT_GE(resolveThreads(0), 1);
    EXPECT_GE(resolveThreads(-1000000), 1);
}

TEST(Env, ResolveThreadsClampsAbsurdCounts)
{
    EXPECT_EQ(resolveThreads(1 << 20), 4096);
    setenv("XPS_THREADS", "999999999", 1);
    EXPECT_EQ(resolveThreads(0), 4096);
    unsetenv("XPS_THREADS");
}

TEST(Env, BudgetHasSaneDefaults)
{
    const Budget &b = Budget::get();
    EXPECT_GT(b.evalInstrs, 0u);
    EXPECT_GT(b.saIters, 0u);
    EXPECT_GT(b.finalInstrs, 0u);
    EXPECT_GE(b.threads, 1);
    EXPECT_FALSE(b.resultsDir.empty());
}

// The README's knob table is the one list of every XPS_* variable
// src/ reads: a knob missing from it, or a row no code reads, fails.
// The count is a ratchet — a new knob has to earn its row here.
TEST(Env, KnobInventoryMatchesReadme)
{
    const std::filesystem::path root = XPS_REPO_DIR;
    const std::regex read(
        R"re((?:envString|envUInt|envInt|getenv)\(\s*"(XPS_[A-Z0-9_]+)")re");
    std::set<std::string> code;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(root / "src")) {
        const std::string ext = entry.path().extension().string();
        if (ext != ".cc" && ext != ".hh")
            continue;
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        const std::string src = text.str();
        for (std::sregex_iterator it(src.begin(), src.end(), read), end;
             it != end; ++it)
            code.insert((*it)[1]);
    }

    std::ifstream readme(root / "README.md");
    ASSERT_TRUE(readme) << root / "README.md";
    const std::regex row(R"(^\| `(XPS_[A-Z0-9_]+)` \|)");
    std::set<std::string> table;
    std::string line;
    while (std::getline(readme, line)) {
        std::smatch m;
        if (std::regex_search(line, m, row)) {
            EXPECT_TRUE(table.insert(m[1]).second)
                << m[1] << " has two rows";
        }
    }

    for (const std::string &knob : code)
        EXPECT_TRUE(table.count(knob))
            << knob << " is read in src/ but missing from the README "
                       "knob table";
    for (const std::string &knob : table)
        EXPECT_TRUE(code.count(knob))
            << knob << " has a README row but nothing in src/ reads it";
    EXPECT_EQ(code.size(), 24u);
}

// --- atomic file ---------------------------------------------------------

namespace
{

std::filesystem::path
freshAtomicDir(const char *tag)
{
    const auto dir = std::filesystem::temp_directory_path() / tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
seedFile(const std::filesystem::path &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
}

} // namespace

TEST(AtomicFile, WriteAndReadBack)
{
    const auto dir = freshAtomicDir("xps_atomic_rw");
    const std::string path = dir / "out.txt";
    atomicWriteFile(path, "payload");
    std::string in;
    ASSERT_TRUE(readFile(path, in));
    EXPECT_EQ(in, "payload");
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, SweepsOrphanedTempsOfDeadWriters)
{
    const auto dir = freshAtomicDir("xps_atomic_sweep");
    const std::string path = dir / "out.txt";
    // A pid-reuse-era orphan (old suffix shape, no nonce) and a
    // current-shape orphan: both writers are long gone. PID 1 always
    // exists (so kill(1, 0) != ESRCH proves the live-writer branch
    // elsewhere); pick a pid far above pid_max for the dead writers.
    seedFile(path + ".tmp.999999999", "stale old-shape");
    seedFile(path + ".tmp.999999998.0badc0de", "stale new-shape");
    // Not our naming scheme: must survive the sweep untouched.
    seedFile(path + ".tmp.notapid", "unrelated");
    atomicWriteFile(path, "fresh");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp.999999999"));
    EXPECT_FALSE(
        std::filesystem::exists(path + ".tmp.999999998.0badc0de"));
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp.notapid"));
    std::string in;
    ASSERT_TRUE(readFile(path, in));
    EXPECT_EQ(in, "fresh");
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, KeepsTempsOfLiveWriters)
{
    const auto dir = freshAtomicDir("xps_atomic_live");
    const std::string path = dir / "out.txt";
    // Our own pid is alive by definition — but the sweep skips self
    // by pid, so use pid 1 (always alive, kill yields EPERM or 0).
    const std::string live = path + ".tmp.1.00000001";
    seedFile(live, "concurrent writer's staging file");
    atomicWriteFile(path, "fresh");
    EXPECT_TRUE(std::filesystem::exists(live));
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, SweepScopedToTargetName)
{
    const auto dir = freshAtomicDir("xps_atomic_scope");
    const std::string path = dir / "out.txt";
    // An orphan staged for a *different* target in the same directory
    // must not be touched by this target's sweep.
    seedFile(dir / "other.txt.tmp.999999999", "other target's orphan");
    atomicWriteFile(path, "fresh");
    EXPECT_TRUE(
        std::filesystem::exists(dir / "other.txt.tmp.999999999"));
    std::filesystem::remove_all(dir);
}
