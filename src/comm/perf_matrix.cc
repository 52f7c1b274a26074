#include "comm/perf_matrix.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "explore/checkpoint.hh"
#include "explore/supervisor.hh"
#include "sim/cells.hh"
#include "sim/simulator.hh"
#include "util/atomic_file.hh"
#include "util/csv.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/procpool.hh"
#include "util/table.hh"
#include "workload/trace.hh"

namespace xps
{

namespace
{

constexpr const char *kPartialMagic = "xps-matrix-partial v1";
constexpr const char *kRowMagic = "xps-matrix-row v1";

/** Serialize one finished row as a supervised worker result file:
 *  magic, identity manifest, then exactly n `cell` lines. */
std::string
serializeMatrixRow(size_t w, const std::vector<double> &row,
                   const CsvManifest &identity)
{
    std::ostringstream out;
    out << kRowMagic << '\n';
    for (const auto &[key, value] : identity.entries)
        out << "m " << key << '=' << value << '\n';
    out << "endm\n";
    for (size_t c = 0; c < row.size(); ++c)
        out << "cell " << w << ' ' << c << ' '
            << formatHexDouble(row[c]) << '\n';
    return out.str();
}

/** Strict inverse of serializeMatrixRow: every cell of row `w` must
 *  be present exactly once under a matching manifest, else false —
 *  the supervisor then treats the attempt as failed and retries. */
bool
parseMatrixRow(const std::string &content, size_t w, size_t n,
               const CsvManifest &identity, std::vector<double> &row)
{
    std::istringstream in(content);
    std::string line;
    if (!std::getline(in, line) || line != kRowMagic)
        return false;
    CsvManifest found;
    while (std::getline(in, line)) {
        if (line == "endm")
            break;
        if (line.rfind("m ", 0) != 0)
            return false;
        const size_t eq = line.find('=', 2);
        if (eq == std::string::npos)
            return false;
        found.entries.emplace_back(line.substr(2, eq - 2),
                                   line.substr(eq + 1));
    }
    if (!(found == identity))
        return false;
    std::vector<double> vals(n, 0.0);
    std::vector<bool> have(n, false);
    size_t cells = 0;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string tag, value;
        size_t rw = 0, c = 0;
        if (!(fields >> tag >> rw >> c >> value) || tag != "cell" ||
            rw != w || c >= n || have[c])
            return false;
        double v = 0.0;
        if (!parseHexDouble(value, v))
            return false;
        vals[c] = v;
        have[c] = true;
        ++cells;
    }
    if (cells != n)
        return false;
    row = std::move(vals);
    return true;
}

} // namespace

CsvManifest
PerfMatrix::partialIdentity(const std::vector<WorkloadProfile> &suite,
                            const std::vector<CoreConfig> &configs,
                            uint64_t instrs)
{
    CsvManifest m;
    m.set("kind", std::string("perf-matrix-partial"));
    m.set("schema", std::string("1"));
    m.set("instrs", instrs);
    m.set("n", static_cast<uint64_t>(suite.size()));
    std::ostringstream ids;
    for (size_t i = 0; i < suite.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%016llx:%016llx",
                      static_cast<unsigned long long>(
                          profileFingerprint(suite[i])),
                      static_cast<unsigned long long>(
                          configFingerprint(configs[i])));
        ids << (i ? ";" : "") << suite[i].name << ':' << buf;
    }
    m.set("identity", ids.str());
    return m;
}

namespace
{

/**
 * Load the finished cells of a partial matrix file. Returns the
 * number of cells recovered; 0 (with `fresh` = true) when the file is
 * absent, carries a foreign manifest, or is corrupted beyond its
 * header — the caller then rewrites it from scratch. A torn tail line
 * (the crash interrupted an append) only drops that line.
 */
size_t
loadPartialMatrix(const std::string &path, const CsvManifest &identity,
                  std::vector<std::vector<double>> &ipt,
                  std::vector<std::vector<bool>> &have, bool &fresh)
{
    fresh = true;
    std::string content;
    if (!readFile(path, content))
        return 0;
    std::istringstream in(content);
    std::string line;
    if (!std::getline(in, line) || line != kPartialMagic)
        return 0;
    CsvManifest found;
    while (std::getline(in, line)) {
        if (line == "endm")
            break;
        if (line.rfind("m ", 0) != 0)
            return 0;
        const size_t eq = line.find('=', 2);
        if (eq == std::string::npos)
            return 0;
        found.entries.emplace_back(line.substr(2, eq - 2),
                                   line.substr(eq + 1));
    }
    if (!(found == identity))
        return 0;
    fresh = false;
    const size_t n = ipt.size();
    size_t cells = 0;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string tag, value;
        size_t w = 0, c = 0;
        if (!(fields >> tag >> w >> c >> value) ||
            tag != "cell" || w >= n || c >= n) {
            break; // torn tail: ignore this line and everything after
        }
        double v = 0.0;
        if (!parseHexDouble(value, v))
            break;
        if (!have[w][c]) {
            ipt[w][c] = v;
            have[w][c] = true;
            ++cells;
        }
    }
    return cells;
}

} // namespace

PerfMatrix::PerfMatrix(std::vector<std::string> names,
                       std::vector<std::vector<double>> ipt)
    : names_(std::move(names)), ipt_(std::move(ipt))
{
    if (ipt_.size() != names_.size())
        fatal("PerfMatrix: %zu rows for %zu names",
              ipt_.size(), names_.size());
    for (const auto &row : ipt_) {
        if (row.size() != names_.size())
            fatal("PerfMatrix: non-square matrix");
    }
}

PerfMatrix
PerfMatrix::build(const std::vector<WorkloadProfile> &suite,
                  const std::vector<CoreConfig> &configs,
                  uint64_t instrs, int threads,
                  const std::string &partialPath)
{
    if (suite.size() != configs.size())
        fatal("PerfMatrix::build: %zu workloads vs %zu configs",
              suite.size(), configs.size());
    const size_t n = suite.size();
    std::vector<std::string> names;
    names.reserve(n);
    for (const auto &p : suite)
        names.push_back(p.name);

    std::vector<std::vector<double>> ipt(n, std::vector<double>(n, 0.0));
    std::vector<std::vector<bool>> have(n, std::vector<bool>(n, false));

    // Per-cell crash safety: recover cells from the partial file (if
    // its identity matches this build), then append every cell we
    // compute. Cells are independent evaluations, so the merged
    // matrix is bit-identical to an uninterrupted build.
    Metrics &metrics = Metrics::global();
    FILE *partial = nullptr;
    std::mutex partial_mutex;
    if (!partialPath.empty()) {
        const CsvManifest identity =
            partialIdentity(suite, configs, instrs);
        bool fresh = true;
        const size_t recovered =
            loadPartialMatrix(partialPath, identity, ipt, have, fresh);
        if (recovered > 0) {
            inform("resuming matrix build from %s (%zu/%zu cells)",
                   partialPath.c_str(), recovered, n * n);
            metrics.counter("perf_matrix.cells_resumed")
                .add(recovered);
        }
        if (fresh) {
            // Absent, stale or corrupt: (re)write the header
            // atomically, then append below.
            std::ostringstream header;
            header << kPartialMagic << '\n';
            for (const auto &[key, value] : identity.entries)
                header << "m " << key << '=' << value << '\n';
            header << "endm\n";
            atomicWriteFile(partialPath, header.str());
        }
        partial = std::fopen(partialPath.c_str(), "a");
        if (!partial)
            fatal("PerfMatrix::build: cannot append to %s",
                  partialPath.c_str());
    }

    // One immutable trace per workload, generated up front in the
    // registry and shared read-only by every worker: row w's n
    // evaluations replay the same buffer instead of regenerating the
    // stream n times.
    SimOptions proto;
    proto.measureInstrs = instrs;
    for (const auto &p : suite)
        sharedTrace(p, proto.streamId, proto.traceOps());

    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (size_t idx = next.fetch_add(1); idx < n * n;
             idx = next.fetch_add(1)) {
            const size_t w = idx / n;
            const size_t c = idx % n;
            if (have[w][c])
                continue;
            ipt[w][c] = simulateCell(suite[w], configs[c], proto).ipt();
            metrics.counter("perf_matrix.cells_computed").add();
            if (partial) {
                // One line per cell, serialized and flushed: a crash
                // loses at most the torn tail line, which the next
                // run recomputes.
                std::lock_guard<std::mutex> lock(partial_mutex);
                std::fprintf(partial, "cell %zu %zu %s\n", w, c,
                             formatHexDouble(ipt[w][c]).c_str());
                std::fflush(partial);
            }
        }
    };
    std::vector<std::thread> pool;
    const int nthreads = resolveThreads(threads);
    pool.reserve(static_cast<size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();

    if (partial) {
        std::fclose(partial);
        std::error_code ec;
        std::filesystem::remove(partialPath, ec);
    }
    return PerfMatrix(std::move(names), std::move(ipt));
}

PerfMatrix
PerfMatrix::buildSupervised(const std::vector<WorkloadProfile> &suite,
                            const std::vector<CoreConfig> &configs,
                            uint64_t instrs, Supervisor &supervisor,
                            std::vector<std::string> *missingRows)
{
    if (suite.size() != configs.size())
        fatal("PerfMatrix::buildSupervised: %zu workloads vs %zu "
              "configs", suite.size(), configs.size());
    const size_t n = suite.size();
    std::vector<std::string> names;
    names.reserve(n);
    for (const auto &p : suite)
        names.push_back(p.name);

    const CsvManifest identity = partialIdentity(suite, configs,
                                                 instrs);
    // Rows a quarantined worker never published stay NaN — the
    // completed matrix records them as missing instead of aborting.
    std::vector<std::vector<double>> ipt(
        n, std::vector<double>(
               n, std::numeric_limits<double>::quiet_NaN()));

    // Traces are materialized in the registry before the forks, so
    // every worker inherits the shared read-only buffers instead of
    // regenerating its stream per attempt.
    SimOptions proto;
    proto.measureInstrs = instrs;
    for (const auto &p : suite)
        sharedTrace(p, proto.streamId, proto.traceOps());

    std::vector<ProcJob> jobs;
    jobs.reserve(n);
    for (size_t w = 0; w < n; ++w) {
        ProcJob job;
        job.name = "matrix." + suite[w].name;
        const std::string row_path =
            supervisor.stagingPath(job.name + ".row");
        job.run = [&, w, row_path]() {
            std::vector<double> row(n, 0.0);
            for (size_t c = 0; c < n; ++c) {
                ProcPool::beat(); // per-cell liveness
                row[c] = simulate(suite[w], configs[c], proto).ipt();
            }
            atomicWriteFile(row_path,
                            serializeMatrixRow(w, row, identity),
                            "cell.publish");
            return 0;
        };
        job.onSuccess = [&, w, row_path]() {
            std::string content;
            std::vector<double> row;
            if (!readFile(row_path, content) ||
                !parseMatrixRow(content, w, n, identity, row))
                return false;
            ipt[w] = std::move(row);
            Metrics::global()
                .counter("perf_matrix.cells_computed").add(n);
            std::error_code ec;
            std::filesystem::remove(row_path, ec);
            return true;
        };
        jobs.push_back(std::move(job));
    }

    const std::vector<ProcJobOutcome> outcomes = supervisor.run(jobs);
    for (size_t w = 0; w < outcomes.size(); ++w) {
        if (outcomes[w].status == ProcJobOutcome::Status::Quarantined) {
            warn("perf matrix: row %s quarantined after %d attempts; "
                 "its cells are recorded as missing",
                 suite[w].name.c_str(), outcomes[w].attempts);
            if (missingRows)
                missingRows->push_back(suite[w].name);
        }
    }
    return PerfMatrix(std::move(names), std::move(ipt));
}

double
PerfMatrix::ipt(size_t w, size_t c) const
{
    if (w >= size() || c >= size())
        fatal("PerfMatrix::ipt(%zu, %zu) out of range", w, c);
    return ipt_[w][c];
}

double
PerfMatrix::slowdown(size_t w, size_t c) const
{
    const double own = ownIpt(w);
    if (own <= 0.0)
        fatal("PerfMatrix: non-positive own IPT for %s",
              names_[w].c_str());
    return 1.0 - ipt(w, c) / own;
}

size_t
PerfMatrix::index(const std::string &name) const
{
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return i;
    }
    fatal("PerfMatrix: unknown workload '%s'", name.c_str());
}

size_t
PerfMatrix::bestConfigFor(size_t w,
                          const std::vector<size_t> &columns) const
{
    if (columns.empty())
        fatal("PerfMatrix::bestConfigFor: empty column subset");
    size_t best = columns.front();
    for (size_t c : columns) {
        if (ipt(w, c) > ipt(w, best))
            best = c;
    }
    return best;
}

std::vector<std::vector<std::string>>
PerfMatrix::toCsvRows() const
{
    std::vector<std::vector<std::string>> rows;
    rows.reserve(size());
    for (size_t w = 0; w < size(); ++w) {
        std::vector<std::string> row;
        row.push_back(names_[w]);
        for (size_t c = 0; c < size(); ++c)
            row.push_back(formatDouble(ipt_[w][c], 6));
        rows.push_back(std::move(row));
    }
    return rows;
}

PerfMatrix
PerfMatrix::fromCsv(const std::vector<std::string> &header,
                    const std::vector<std::vector<std::string>> &rows)
{
    if (header.size() != rows.size() + 1)
        fatal("PerfMatrix::fromCsv: %zu header cols for %zu rows",
              header.size(), rows.size());
    std::vector<std::string> names(header.begin() + 1, header.end());
    std::vector<std::vector<double>> ipt;
    ipt.reserve(rows.size());
    for (size_t w = 0; w < rows.size(); ++w) {
        if (rows[w].size() != header.size())
            fatal("PerfMatrix::fromCsv: ragged row");
        if (rows[w][0] != names[w])
            fatal("PerfMatrix::fromCsv: row order mismatch (%s vs %s)",
                  rows[w][0].c_str(), names[w].c_str());
        std::vector<double> vals;
        vals.reserve(names.size());
        for (size_t c = 1; c < rows[w].size(); ++c)
            vals.push_back(std::atof(rows[w][c].c_str()));
        ipt.push_back(std::move(vals));
    }
    return PerfMatrix(std::move(names), std::move(ipt));
}

} // namespace xps
