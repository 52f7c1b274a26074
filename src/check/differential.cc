#include "check/differential.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/invariant_checker.hh"
#include "sim/ooo_core.hh"
#include "util/logging.hh"
#include "workload/trace.hh"

namespace xps
{

namespace
{

void
compareCount(std::ostringstream &out, const char *what, uint64_t ooo,
             uint64_t ref)
{
    if (ooo != ref)
        out << what << ": core " << ooo << " != oracle " << ref
            << "; ";
}

} // namespace

DiffResult
runDifferentialCase(const PropCase &c)
{
    // A private buffer, not sharedTrace(): fuzz cases are one-shot
    // and must not pin thousands of traces in the global registry.
    const uint64_t ops =
        c.measureInstrs + c.warmupInstrs + kTraceSlackOps;
    auto buffer = std::make_shared<const TraceBuffer>(
        c.profile, c.streamId, ops);

    DiffResult r;
    InvariantChecker checker(c.config, /*fail_fast=*/false);
    {
        OooCore core(c.config);
        core.setChecker(&checker);
        r.ooo = core.run(buffer, c.measureInstrs, c.warmupInstrs);
    }
    {
        ReferenceCore oracle(c.config);
        TraceCursor cursor(buffer);
        r.ref = oracle.run(cursor, c.measureInstrs, c.warmupInstrs);
    }
    r.invariantViolations = checker.violations();

    std::ostringstream fail;
    if (!checker.ok())
        fail << checker.violations().size()
             << " invariant violation(s): " << checker.summary()
             << "; ";
    compareCount(fail, "instructions", r.ooo.instructions,
                 r.ref.instructions);
    compareCount(fail, "loads", r.ooo.loads, r.ref.loads);
    compareCount(fail, "stores", r.ooo.stores, r.ref.stores);
    compareCount(fail, "condBranches", r.ooo.condBranches,
                 r.ref.condBranches);
    compareCount(fail, "mispredicts", r.ooo.mispredicts,
                 r.ref.mispredicts);
    if (r.ooo.cycles > r.ref.cycles)
        fail << "IPC domination: core took " << r.ooo.cycles
             << " cycles, serialized oracle only " << r.ref.cycles
             << "; ";

    r.failure = fail.str();
    r.passed = r.failure.empty();
    return r;
}

FuzzReport
fuzzDifferential(uint64_t iters, uint64_t seed,
                 const std::string &corpus_dir)
{
    // Shrinking re-evaluates the property hundreds of times; a few
    // shrunk reproductions of the same campaign are plenty.
    constexpr uint64_t kMaxShrunkFailures = 4;

    PropGen gen(seed);
    FuzzReport rep;
    const PropProperty passes = [](const PropCase &pc) {
        return runDifferentialCase(pc).passed;
    };
    for (uint64_t i = 0; i < iters; ++i) {
        const PropCase c = gen.next();
        ++rep.iterations;
        const DiffResult r = runDifferentialCase(c);
        if (r.passed)
            continue;

        const PropCase minimal = shrinkCase(c, passes, gen.timing());
        const DiffResult mr = runDifferentialCase(minimal);
        const std::string &msg =
            mr.failure.empty() ? r.failure : mr.failure;
        ++rep.failures;
        if (rep.failures == 1) {
            rep.firstFailure = minimal;
            rep.firstFailureMessage = msg;
        }
        warn("fuzz case %llu failed (%s); shrunk %llu -> %llu "
             "fields from baseline",
             static_cast<unsigned long long>(i), msg.c_str(),
             static_cast<unsigned long long>(shrinkDistance(c)),
             static_cast<unsigned long long>(shrinkDistance(minimal)));

        if (!corpus_dir.empty()) {
            std::filesystem::create_directories(corpus_dir);
            std::ostringstream name;
            name << "fail-seed" << seed << "-iter" << i
                 << ".case";
            const std::string path =
                (std::filesystem::path(corpus_dir) / name.str())
                    .string();
            std::ofstream out(path);
            if (!out)
                fatal("fuzz: cannot write corpus file %s",
                      path.c_str());
            out << minimal.serialize();
            rep.corpusFiles.push_back(path);
        }
        if (rep.failures >= kMaxShrunkFailures)
            break;
    }
    return rep;
}

std::vector<PropCase>
loadCorpus(const std::string &dir)
{
    std::vector<PropCase> cases;
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        return cases;
    std::vector<std::string> paths;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".case")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in)
            fatal("corpus: cannot read %s", path.c_str());
        std::ostringstream text;
        text << in.rdbuf();
        cases.push_back(PropCase::parse(text.str()));
    }
    return cases;
}

} // namespace xps
