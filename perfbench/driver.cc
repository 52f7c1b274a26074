/**
 * @file
 * xps-perfbench: runs one measured unit of a benchmark workload
 * against the xpscalar library or a real xps-serve daemon and prints
 * one JSON line of raw measurements. run.py starts it, repeats it,
 * checks its outputs against the checked-in oracles and reduces the
 * measurements to the benchmark's metrics (see README.md).
 *
 *   xps-perfbench pipeline --workload paper-cold|crossconfig-matrix
 *       --results DIR [--setup-only 1]
 *   xps-perfbench serve --daemon PATH --dir DIR --requests FILE
 *       --records FILE [--metrics FILE] [--daemon-env KEY=VALUE]...
 *
 * Every call into the library sits in its own "bench.*" span, so a
 * traced run (XPS_TRACE_JSON in the environment) shows the blocking
 * steps of the unit beside the library's own spans.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "comm/combination.hh"
#include "comm/experiments.hh"
#include "comm/perf_matrix.hh"
#include "comm/surrogate.hh"
#include "explore/explorer.hh"
#include "obs/json.hh"
#include "obs/tracer.hh"
#include "serve/client.hh"
#include "sim/simulator.hh"
#include "util/csv.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "workload/profile.hh"
#include "workload/trace.hh"

using namespace xps;
namespace fs = std::filesystem;

namespace
{

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds (user + system) and peak RSS of this process and of
 *  every child it has waited for. */
struct Usage
{
    double cpuS = 0.0;
    double peakRssMb = 0.0;
};

Usage
usageNow()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    Usage u;
    u.cpuS = secs(self.ru_utime) + secs(self.ru_stime) +
             secs(kids.ru_utime) + secs(kids.ru_stime);
    // ru_maxrss is in KiB; for children it is the largest single one.
    u.peakRssMb =
        static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
        1024.0;
    return u;
}

std::string
num(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

std::string
numList(const std::vector<double> &xs)
{
    std::string out = "[";
    for (size_t i = 0; i < xs.size(); ++i) {
        if (i)
            out += ',';
        out += num(xs[i]);
    }
    return out + "]";
}

/** --key value flags; repeated keys accumulate. */
std::multimap<std::string, std::string>
parseFlags(int argc, char **argv, int first)
{
    std::multimap<std::string, std::string> flags;
    for (int i = first; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            fatal("xps-perfbench: expected --flag value, got '%s'",
                  key.c_str());
        flags.emplace(key.substr(2), argv[++i]);
    }
    return flags;
}

std::string
flag(const std::multimap<std::string, std::string> &flags,
     const std::string &key)
{
    const auto it = flags.find(key);
    if (it == flags.end())
        fatal("xps-perfbench: missing --%s", key.c_str());
    return it->second;
}

// --- pipelines ------------------------------------------------------

/** The checked-in Table 4 and Table 5, validated against the
 *  manifests of the default budget: the crossconfig-matrix input and
 *  the oracle of both pipelines. */
struct Oracle
{
    std::vector<WorkloadProfile> suite;
    std::vector<CoreConfig> configs;
    PerfMatrix matrix;
};

Oracle
loadOracle(const std::string &resultsDir)
{
    Oracle o;
    o.suite = spec2000int();
    CsvDoc t4;
    if (!readCsvValidated(resultsDir + "/table4_configs.csv", t4,
                          table4Manifest(o.suite)) ||
        t4.rows.size() != o.suite.size())
        fatal("xps-perfbench: %s/table4_configs.csv does not match "
              "the default budget and profiles", resultsDir.c_str());
    for (size_t w = 0; w < t4.rows.size(); ++w) {
        o.configs.push_back(CoreConfig::fromCsvRow(t4.header, t4.rows[w]));
        if (o.configs.back().name != o.suite[w].name)
            fatal("xps-perfbench: table4 row %zu is '%s', expected '%s'",
                  w, o.configs.back().name.c_str(),
                  o.suite[w].name.c_str());
    }
    CsvDoc t5;
    if (!readCsvValidated(resultsDir + "/table5_matrix.csv", t5,
                          table5Manifest(o.suite, o.configs)) ||
        t5.rows.size() != o.suite.size())
        fatal("xps-perfbench: %s/table5_matrix.csv does not match "
              "the checked-in Table 4", resultsDir.c_str());
    o.matrix = PerfMatrix::fromCsv(t5.header, t5.rows);
    return o;
}

/** The §5 analyses read off a matrix: Table 6's best combination for
 *  every k and merit, and the surrogate graphs of Figs. 6-8. Each
 *  entry is the chosen column list, compared between the measured
 *  matrix and the oracle's. */
std::vector<std::vector<size_t>>
analyse(const PerfMatrix &m)
{
    std::vector<std::vector<size_t>> out;
    for (size_t k = 1; k <= 4; ++k) {
        for (Merit merit : {Merit::Average, Merit::Harmonic,
                            Merit::ContentionWeightedHarmonic})
            out.push_back(bestCombination(m, k, merit).columns);
    }
    for (Propagation p :
         {Propagation::None, Propagation::Forward, Propagation::Full})
        out.push_back(greedySurrogates(m, p).resolved);
    return out;
}

int
runPipeline(const std::multimap<std::string, std::string> &flags)
{
    const std::string workload = flag(flags, "workload");
    const bool paper = workload == "paper-cold";
    if (!paper && workload != "crossconfig-matrix")
        fatal("xps-perfbench: unknown pipeline '%s'", workload.c_str());
    const std::string resultsDir = flag(flags, "results");

    // Set-up ends once the inputs are loaded and validated; a
    // --setup-only probe reports when that was on the monotonic clock
    // its parent started it by.
    const Oracle oracle = loadOracle(resultsDir);
    if (flags.count("setup-only")) {
        std::printf("{\"ready_mono_s\":%s}\n", num(nowS()).c_str());
        return 0;
    }
    const auto expected = analyse(oracle.matrix);

    // The ExplorerOptions, matrix partial file and cache writes of
    // experimentContext(), from the Budget run.py passes: its knobs,
    // XPS_THREADS and a fresh XPS_RESULTS_DIR for the outputs and
    // checkpoints.
    const Budget &budget = Budget::get();
    const std::string partial =
        budget.checkpointEvery > 0
            ? budget.resultsDir + "/checkpoints/table5_matrix.partial"
            : std::string();
    const std::vector<WorkloadProfile> &suite = oracle.suite;

    const Usage u0 = usageNow();
    const double t0 = nowS();
    std::vector<CoreConfig> configs;
    uint64_t evaluations = 0;
    PerfMatrix matrix;
    std::vector<std::vector<size_t>> got;
    {
        obs::ScopedSpan unit("bench.unit", "bench");
        if (paper) {
            {
                obs::ScopedSpan span("bench.explore", "bench");
                ExplorerOptions opts;
                opts.evalInstrs = budget.evalInstrs;
                opts.saIters = budget.saIters;
                opts.threads = budget.threads;
                opts.finalEvalInstrs = budget.finalInstrs;
                opts.checkpointEvery = budget.checkpointEvery;
                Explorer explorer(suite, opts);
                for (const WorkloadResult &r : explorer.exploreAll()) {
                    configs.push_back(r.best);
                    evaluations += r.evaluations;
                }
            }
            obs::ScopedSpan span("bench.write", "bench");
            storeTable4Cache(suite, configs);
        } else {
            configs = oracle.configs;
            // Cold traces, built the way PerfMatrix::build builds them.
            obs::ScopedSpan span("bench.traces", "bench");
            SimOptions proto;
            proto.measureInstrs = budget.finalInstrs;
            for (const WorkloadProfile &p : suite)
                sharedTrace(p, proto.streamId, proto.traceOps());
        }
        {
            obs::ScopedSpan span("bench.matrix", "bench");
            matrix = PerfMatrix::build(suite, configs, budget.finalInstrs,
                                       budget.threads, partial);
        }
        {
            obs::ScopedSpan span("bench.write", "bench");
            storeTable5Cache(suite, configs, matrix);
        }
        {
            obs::ScopedSpan span("bench.analyses", "bench");
            got = analyse(matrix);
        }
    }
    const double wall = nowS() - t0;
    const Usage u1 = usageNow();

    size_t mismatches = 0;
    for (size_t i = 0; i < expected.size(); ++i)
        mismatches += got[i] != expected[i] ? 1 : 0;
    double logSum = 0.0;
    for (size_t w = 0; w < matrix.size(); ++w)
        logSum += std::log(matrix.ownIpt(w));

    std::printf(
        "{\"wall_s\":%s,\"cpu_s\":%s,\"peak_rss_mb\":%s,"
        "\"geomean_own_ipt\":%s,\"explore_evaluations\":%llu,"
        "\"analyses\":%zu,\"analyses_mismatches\":%zu}\n",
        num(wall).c_str(), num(u1.cpuS - u0.cpuS).c_str(),
        num(u1.peakRssMb).c_str(),
        num(std::exp(logSum / static_cast<double>(matrix.size()))).c_str(),
        static_cast<unsigned long long>(evaluations), expected.size(),
        mismatches);
    return 0;
}

// --- serve ----------------------------------------------------------

const char *kSocket = "s.sock"; // relative: sun_path is 108 bytes

/** Closed-loop connections. Every xps-client caller waits for its
 *  reply before it sends again, so load falls when the daemon slows;
 *  4 keeps both workers busy while replies are being read. */
constexpr int kClients = 4;

/** Set-up samples: fresh daemons spawned until their first ping is
 *  answered, half before the measured requests and half after. */
constexpr int kSetupSpawns = 64;

pid_t
spawnDaemon(const std::string &daemon, const std::string &dir,
            const std::vector<std::string> &env)
{
    fs::create_directories(dir);
    const std::string log = dir + "/daemon.log";
    const pid_t pid = fork();
    if (pid < 0)
        fatal("xps-perfbench: fork: %s", std::strerror(errno));
    if (pid == 0) {
        for (const std::string &kv : env) {
            const size_t eq = kv.find('=');
            setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
        }
        if (!std::freopen(log.c_str(), "w", stdout) ||
            dup2(fileno(stdout), STDERR_FILENO) < 0)
            _exit(126);
        const std::string sock = dir + "/" + kSocket;
        execl(daemon.c_str(), "xps-serve", "--socket", sock.c_str(),
              "--dir", dir.c_str(), static_cast<char *>(nullptr));
        _exit(127);
    }
    return pid;
}

/** Connect and ping until the daemon answers (0.1 ms polling). */
bool
awaitPing(const std::string &dir, pid_t pid, double timeoutS)
{
    const double deadline = nowS() + timeoutS;
    const std::string sock = dir + "/" + kSocket;
    serve::Client client;
    while (nowS() < deadline) {
        int status = 0;
        if (waitpid(pid, &status, WNOHANG) == pid)
            return false; // died during boot
        std::string resp;
        if (client.connect(sock, 0.0) &&
            client.request("{\"op\":\"ping\",\"id\":\"boot\"}", resp,
                           timeoutS) &&
            resp.find("\"status\":\"ok\"") != std::string::npos)
            return true;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
}

/** SIGTERM, then wait for the drained exit; returns the exit code. */
int
stopDaemon(pid_t pid)
{
    kill(pid, SIGTERM);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + WTERMSIG(status);
}

struct Record
{
    double latencyS = 0.0;
    bool transportOk = false;
    std::string response;
};

int
runServe(const std::multimap<std::string, std::string> &flags)
{
    const std::string daemon = fs::absolute(flag(flags, "daemon"));
    const std::string base = flag(flags, "dir");
    std::vector<std::string> daemonEnv;
    for (auto [it, end] = flags.equal_range("daemon-env"); it != end; ++it)
        daemonEnv.push_back(it->second);

    std::vector<std::string> lines;
    {
        std::ifstream in(flag(flags, "requests"));
        for (std::string line; std::getline(in, line);) {
            if (!line.empty())
                lines.push_back(line);
        }
    }
    if (lines.empty())
        fatal("xps-perfbench: empty request script");

    // Chdir into the run directory so the socket path stays short
    // whatever the checkout's path.
    fs::create_directories(base);
    if (chdir(base.c_str()) != 0)
        fatal("xps-perfbench: chdir %s: %s", base.c_str(),
              std::strerror(errno));

    // Set-up: spawn a fresh daemon until its first ping is answered.
    std::vector<double> setup;
    auto setupSpawns = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const std::string dir = "setup" + std::to_string(setup.size());
            const double t0 = nowS();
            const pid_t pid = spawnDaemon(daemon, dir, {});
            const bool up = awaitPing(dir, pid, 30.0);
            setup.push_back(nowS() - t0);
            const int code = stopDaemon(pid);
            if (!up)
                fatal("xps-perfbench: setup daemon never answered "
                      "(exit %d)", code);
        }
    };
    setupSpawns(kSetupSpawns / 2);

    const Usage u0 = usageNow();
    const pid_t pid = spawnDaemon(daemon, "run", daemonEnv);
    if (!awaitPing("run", pid, 30.0))
        fatal("xps-perfbench: daemon never answered (exit %d)",
              stopDaemon(pid));

    // Closed loop over the whole script: each client sends its next
    // request only after the reply to its previous one. A client that
    // cannot (re)connect stops; its failed connects are reported and
    // the requests it never sent stay unsent.
    std::vector<Record> records(lines.size());
    std::atomic<size_t> next{0};
    std::atomic<int> connects{0}, connectFailures{0};
    auto connect = [&](serve::Client &c) {
        ++connects;
        if (c.connect(std::string("run/") + kSocket, 10.0))
            return true;
        ++connectFailures;
        return false;
    };
    const double start = nowS();
    auto client = [&] {
        serve::Client c;
        if (!connect(c))
            return;
        for (size_t i; (i = next.fetch_add(1)) < lines.size();) {
            Record &r = records[i];
            const double sent = nowS();
            r.transportOk = c.request(lines[i], r.response, 120.0);
            r.latencyS = nowS() - sent;
            if (!r.transportOk && !connect(c))
                return;
        }
    };
    std::vector<std::thread> pool;
    for (int i = 0; i < kClients; ++i)
        pool.emplace_back(client);
    for (std::thread &t : pool)
        t.join();
    const double window = nowS() - start;
    const size_t sent = std::min(next.load(), lines.size());

    if (flags.count("metrics")) {
        serve::Client c;
        std::string resp;
        if (!c.connect(std::string("run/") + kSocket, 10.0) ||
            !c.request("{\"op\":\"metrics\",\"id\":\"metrics\"}", resp,
                       30.0)) {
            const std::string error = c.error();
            stopDaemon(pid);
            fatal("xps-perfbench: metrics op failed: %s", error.c_str());
        }
        std::ofstream(flag(flags, "metrics")) << resp << "\n";
    }
    const int exitCode = stopDaemon(pid);
    const Usage u1 = usageNow();
    setupSpawns(kSetupSpawns - kSetupSpawns / 2);

    {
        std::ofstream out(flag(flags, "records"));
        for (size_t i = 0; i < sent; ++i) {
            const Record &r = records[i];
            out << "{\"i\":" << i << ",\"latency_s\":" << num(r.latencyS)
                << ",\"ok\":" << (r.transportOk ? "true" : "false")
                << ",\"response\":\"" << obs::json::escape(r.response)
                << "\"}\n";
        }
    }
    std::printf("{\"setup_s\":%s,\"window_s\":%s,\"cpu_s\":%s,"
                "\"peak_rss_mb\":%s,\"sent\":%zu,\"clients\":%d,"
                "\"connects\":%d,\"connect_failures\":%d,"
                "\"daemon_exit\":%d}\n",
                numList(setup).c_str(), num(window).c_str(),
                num(u1.cpuS - u0.cpuS).c_str(), num(u1.peakRssMb).c_str(),
                sent, kClients, connects.load(), connectFailures.load(),
                exitCode);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: xps-perfbench pipeline|serve --flag value...");
    const std::string mode = argv[1];
    const auto flags = parseFlags(argc, argv, 2);
    if (mode == "pipeline")
        return runPipeline(flags);
    if (mode == "serve")
        return runServe(flags);
    fatal("xps-perfbench: unknown mode '%s'", mode.c_str());
}
