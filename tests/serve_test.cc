/**
 * @file
 * The xps-serve robustness battery (`ctest -L serve`, DESIGN.md §13):
 * drives the real daemon binary over its Unix socket and proves the
 * four robustness layers end to end —
 *
 *  - protocol: closed-world request validation never kills the daemon;
 *  - store: repeated queries are answered from the content-addressed
 *    result store, byte-identical to the computed response;
 *  - admission: a full queue sheds with an explicit `overloaded` and a
 *    retry-after hint while admitted work still completes;
 *  - journal: a SIGKILL'd daemon resumes its in-flight jobs on the
 *    next boot and the recovered result is bit-identical to an
 *    uninterrupted run;
 *  - boot hygiene: stale sockets, pidfiles and journal debris from a
 *    dead daemon are swept, never inherited;
 *  - degradation: a matrix with quarantined rows is delivered marked
 *    (`degraded`) and never published to the store;
 *  - fault matrix: every serve.* catalogue site survives injected
 *    crash/hang/shortwrite/enospc with an explicit error or a
 *    bit-identical result after restart (honors
 *    XPS_FAULT_MATRIX_SEED like tests/fault_matrix_test.cc).
 *
 * The daemon runs as a real child process (fork + exec of the built
 * xps-serve), so signals, the pidfile, socket takeover and journal
 * recovery are exercised exactly as in production.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "serve/client.hh"
#include "util/fault.hh"
#include "util/shutdown.hh"

#ifndef XPS_SERVE_BIN
#error "XPS_SERVE_BIN must point at the built xps-serve binary"
#endif
#ifndef XPS_CLIENT_BIN
#error "XPS_CLIENT_BIN must point at the built xps-client binary"
#endif

using namespace xps;
namespace fs = std::filesystem;

namespace
{

/** Sockets must fit sun_path (108 bytes), so state lives under a
 *  short /tmp directory rather than the build tree. */
std::string
shortTempDir()
{
    char tmpl[] = "/tmp/xsvXXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    if (!dir) {
        ADD_FAILURE() << "mkdtemp failed";
        return "/tmp";
    }
    return dir;
}

/** One daemon child process. start() forks and execs the real
 *  xps-serve binary with a controlled environment. */
struct Daemon
{
    std::string dir;  ///< state directory (also XPS_RESULTS_DIR)
    std::string sock; ///< socket path
    std::vector<std::pair<std::string, std::string>> env;
    std::vector<std::string> flags; ///< extra argv after the basics
    pid_t pid = -1;

    explicit Daemon(const std::string &d)
        : dir(d), sock(d + "/s.sock")
    {
    }

    ~Daemon()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }

    void start()
    {
        pid = ::fork();
        ASSERT_GE(pid, 0) << "fork failed";
        if (pid == 0) {
            ::setenv("XPS_RESULTS_DIR", dir.c_str(), 1);
            ::unsetenv("XPS_METRICS_JSON");
            ::unsetenv("XPS_FAULTS");
            for (const auto &[k, v] : env)
                ::setenv(k.c_str(), v.c_str(), 1);
            // Keep daemon chatter out of the gtest stream but
            // preserved for post-mortems.
            const std::string log = dir + "/daemon.log";
            ::freopen(log.c_str(), "a", stdout);
            ::freopen(log.c_str(), "a", stderr);
            std::vector<const char *> argv = {XPS_SERVE_BIN,
                                              "--socket", sock.c_str(),
                                              "--dir", dir.c_str()};
            for (const std::string &f : flags)
                argv.push_back(f.c_str());
            argv.push_back(nullptr);
            ::execv(XPS_SERVE_BIN,
                    const_cast<char *const *>(argv.data()));
            ::_exit(127);
        }
        // Gate on the daemon claiming the pidfile: takeover is done
        // and any stale predecessor socket is already swept. Without
        // this a client could connect into the doomed accept backlog
        // of a dead daemon's socket while its forked workers are
        // still dying from the PDEATHSIG cascade.
        const std::string pidfile = sock + ".pid";
        const std::string want = std::to_string(pid);
        for (int i = 0; i < 2000; ++i) {
            std::string got;
            std::ifstream in(pidfile);
            if (std::getline(in, got) && got == want)
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        ADD_FAILURE() << "daemon pid " << pid
                      << " never claimed " << pidfile;
    }

    /** Reap the child; returns the raw waitpid status. */
    int waitExit()
    {
        int status = 0;
        EXPECT_EQ(::waitpid(pid, &status, 0), pid);
        pid = -1;
        return status;
    }

    /** SIGTERM + reap; expects the graceful-drain exit code. */
    void stopGracefully()
    {
        ASSERT_GT(pid, 0);
        ASSERT_EQ(::kill(pid, SIGTERM), 0);
        const int status = waitExit();
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), kGracefulExitCode);
    }

    /** SIGKILL + reap, exactly like a power cut. */
    void sigkill()
    {
        ASSERT_GT(pid, 0);
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        waitExit();
    }

    /** Kill whatever is left (dead already is fine) and reap. */
    void killHard()
    {
        if (pid <= 0)
            return;
        ::kill(pid, SIGKILL);
        waitExit();
    }
};

/** One request/response round trip on a fresh connection; returns ""
 *  on any transport failure (daemon dead, hang past the timeout). */
std::string
rpc(const std::string &sock, const std::string &line,
    double timeoutS = 60.0)
{
    serve::Client client;
    if (!client.connect(sock, 10.0)) {
        std::fprintf(stderr, "[rpc] connect: %s\n",
                     client.error().c_str());
        return "";
    }
    std::string response;
    if (!client.request(line, response, timeoutS)) {
        std::fprintf(stderr, "[rpc] request: %s\n",
                     client.error().c_str());
        return "";
    }
    return response;
}

std::string
statusOf(const std::string &response)
{
    obs::json::Value v;
    if (response.empty() || !obs::json::parse(response, v))
        return "";
    return v.stringOr("status", "");
}

double
numField(const std::string &response, const char *key, double fallback)
{
    obs::json::Value v;
    if (response.empty() || !obs::json::parse(response, v))
        return fallback;
    return v.numberOr(key, fallback);
}

/** The `"results":[...]` tail of an ok response — the payload two
 *  responses must agree on byte for byte (excludes the id and the
 *  cache hit/miss marker, which legitimately differ). */
std::string
resultsOf(const std::string &response)
{
    const size_t pos = response.find("\"results\":");
    if (pos == std::string::npos)
        return "";
    return response.substr(pos);
}

const char *kWhatifReq =
    "{\"op\":\"whatif\",\"id\":\"w\",\"workloads\":[\"gzip\",\"mcf\"],"
    "\"instrs\":3000,\"config\":{\"sched_depth\":2,\"width\":4}}";

/** Golden whatif payload from a clean, fault-free daemon run. */
std::string
goldenWhatifResults()
{
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.start();
    const std::string resp = rpc(d.sock, kWhatifReq);
    EXPECT_EQ(statusOf(resp), "ok") << resp;
    d.stopGracefully();
    fs::remove_all(dir);
    return resultsOf(resp);
}

bool
waitForJournalState(const std::string &dir, const std::string &state,
                    double timeoutS)
{
    const std::string needle = "\"state\":\"" + state + "\"";
    for (int i = 0; i < static_cast<int>(timeoutS * 100); ++i) {
        std::error_code ec;
        for (const auto &entry :
             fs::directory_iterator(dir + "/journal", ec)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("job.", 0) != 0 ||
                name.find(".tmp.") != std::string::npos)
                continue;
            std::ifstream in(entry.path());
            std::string content((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
            if (content.find(needle) != std::string::npos)
                return true;
        }
        ::usleep(10000);
    }
    return false;
}

} // namespace

// --- protocol: the closed world never kills the daemon ---------------------

TEST(ServeProtocol, PingStatsAndClosedWorldErrors)
{
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.start();

    EXPECT_EQ(statusOf(rpc(d.sock, "{\"op\":\"ping\",\"id\":\"p1\"}")),
              "ok");
    const std::string stats = rpc(d.sock, "{\"op\":\"stats\"}");
    EXPECT_EQ(statusOf(stats), "ok") << stats;
    EXPECT_GE(numField(stats, "queue_max", -1), 1.0);

    // Every malformed or out-of-world request gets an explicit error
    // response; none of them may take the daemon down.
    for (const char *bad : {
             "this is not json",
             "{\"op\":\"frobnicate\"}",
             "{\"op\":\"whatif\",\"workloads\":[\"no_such_load\"]}",
             "{\"op\":\"whatif\",\"workloads\":[\"gzip\"],"
             "\"config\":{\"no_such_knob\":3}}",
             // Infeasible: width 4 cannot retire from one stage.
             "{\"op\":\"whatif\",\"workloads\":[\"gzip\"],"
             "\"config\":{\"width\":4}}",
             // Matrix requests are square: 2 workloads need 2 configs.
             "{\"op\":\"matrix\",\"workloads\":[\"gzip\",\"mcf\"],"
             "\"configs\":[{}]}",
             "{\"op\":\"explore\",\"workloads\":[\"gzip\"],"
             "\"rounds\":99}",
         }) {
        const std::string resp = rpc(d.sock, bad);
        EXPECT_EQ(statusOf(resp), "error") << bad << " -> " << resp;
        obs::json::Value v;
        ASSERT_TRUE(obs::json::parse(resp, v)) << resp;
        EXPECT_FALSE(v.stringOr("error", "").empty()) << resp;
    }

    // Still alive and serving after all that abuse.
    EXPECT_EQ(statusOf(rpc(d.sock, "{\"op\":\"ping\"}")), "ok");
    d.stopGracefully();
    // A graceful exit leaves no socket or pidfile behind.
    EXPECT_FALSE(fs::exists(d.sock));
    EXPECT_FALSE(fs::exists(d.sock + ".pid"));
    fs::remove_all(dir);
}

// --- store: repeat queries hit the content-addressed cache -----------------

TEST(ServeStore, RepeatQueryIsAByteIdenticalCacheHit)
{
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.start();

    const std::string first = rpc(d.sock, kWhatifReq);
    ASSERT_EQ(statusOf(first), "ok") << first;
    EXPECT_NE(first.find("\"cache\":\"miss\""), std::string::npos)
        << first;

    const std::string second = rpc(d.sock, kWhatifReq);
    ASSERT_EQ(statusOf(second), "ok") << second;
    EXPECT_NE(second.find("\"cache\":\"hit\""), std::string::npos)
        << second;
    EXPECT_EQ(resultsOf(first), resultsOf(second));

    const std::string stats = rpc(d.sock, "{\"op\":\"stats\"}");
    EXPECT_GE(numField(stats, "cache_hits", 0), 1.0) << stats;
    EXPECT_GE(numField(stats, "cache_publishes", 0), 1.0) << stats;
    EXPECT_GE(numField(stats, "completed", 0), 1.0) << stats;
    d.stopGracefully();
    fs::remove_all(dir);
}

// --- concurrency: many clients, mixed query types --------------------------

TEST(ServeConcurrency, ConcurrentClientsWithMixedOpsAllSucceed)
{
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.flags = {"--workers", "2", "--queue-max", "32"};
    d.start();
    // The daemon must be up before the client threads race it.
    ASSERT_EQ(statusOf(rpc(d.sock, "{\"op\":\"ping\"}")), "ok");

    constexpr int kClients = 6;
    std::vector<int> failures(kClients, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            serve::Client client;
            if (!client.connect(d.sock, 10.0)) {
                failures[i] = 1;
                return;
            }
            std::string req;
            if (i % 3 == 0) {
                req = "{\"op\":\"ping\",\"id\":\"c" +
                      std::to_string(i) + "\"}";
            } else if (i % 3 == 1) {
                // Distinct budgets so the jobs cannot coalesce.
                req = "{\"op\":\"whatif\",\"id\":\"c" +
                      std::to_string(i) +
                      "\",\"workloads\":[\"gzip\"],\"instrs\":" +
                      std::to_string(2000 + 1000 * i) + "}";
            } else {
                req = "{\"op\":\"stats\",\"id\":\"c" +
                      std::to_string(i) + "\"}";
            }
            for (int round = 0; round < 3; ++round) {
                std::string resp;
                if (!client.request(req, resp, 120.0) ||
                    statusOf(resp) != "ok") {
                    failures[i] = 1;
                    return;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kClients; ++i)
        EXPECT_EQ(failures[i], 0) << "client " << i << " failed";

    d.stopGracefully();
    fs::remove_all(dir);
}

// --- admission control: a full queue sheds explicitly ----------------------

TEST(ServeAdmission, FullQueueShedsWithRetryAfterHint)
{
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.flags = {"--workers", "1", "--queue-max", "1"};
    d.start();

    serve::Client client;
    ASSERT_TRUE(client.connect(d.sock, 10.0)) << client.error();
    // Three distinct explore jobs back to back: with one worker and a
    // one-deep queue at most two can be admitted, so at least one is
    // shed no matter how the reads chunk.
    for (int seed = 1; seed <= 3; ++seed) {
        ASSERT_TRUE(client.send(
            "{\"op\":\"explore\",\"id\":\"e" + std::to_string(seed) +
            "\",\"workloads\":[\"gzip\"],\"instrs\":3000,"
            "\"sa_iters\":16,\"rounds\":1,\"seed\":" +
            std::to_string(seed) + "}"))
            << client.error();
    }
    int ok = 0, overloaded = 0;
    for (int i = 0; i < 3; ++i) {
        std::string resp;
        ASSERT_TRUE(client.receive(resp, 120.0)) << client.error();
        const std::string status = statusOf(resp);
        if (status == "ok") {
            ++ok;
        } else if (status == "overloaded") {
            ++overloaded;
            EXPECT_GT(numField(resp, "retry_after_s", 0), 0.0) << resp;
        } else {
            ADD_FAILURE() << "unexpected response: " << resp;
        }
    }
    EXPECT_GE(overloaded, 1);
    EXPECT_GE(ok, 1);

    const std::string stats = rpc(d.sock, "{\"op\":\"stats\"}");
    EXPECT_GE(numField(stats, "shed", 0), 1.0) << stats;
    d.stopGracefully();
    fs::remove_all(dir);
}

// --- journal: SIGKILL mid-job, resume on reboot, bit-identical -------------

TEST(ServeJournal, SigkillMidJobResumesBitIdentical)
{
    const char *req =
        "{\"op\":\"explore\",\"id\":\"j\","
        "\"workloads\":[\"gzip\",\"mcf\"],\"instrs\":20000,"
        "\"sa_iters\":48,\"rounds\":2,\"seed\":7}";

    // Golden: the same exploration on a clean daemon, uninterrupted.
    const std::string goldenDir = shortTempDir();
    Daemon golden(goldenDir);
    golden.flags = {"--workers", "1"};
    golden.start();
    const std::string goldenResp = rpc(golden.sock, req, 300.0);
    ASSERT_EQ(statusOf(goldenResp), "ok") << goldenResp;
    golden.stopGracefully();
    fs::remove_all(goldenDir);

    // Victim: kill -9 the daemon the moment the job is journaled as
    // started (the worker is mid-exploration).
    const std::string dir = shortTempDir();
    {
        Daemon victim(dir);
        victim.flags = {"--workers", "1"};
        victim.env = {{"XPS_SERVE_CKPT_EVERY", "4"}};
        victim.start();
        serve::Client client;
        ASSERT_TRUE(client.connect(victim.sock, 10.0))
            << client.error();
        ASSERT_TRUE(client.send(req)) << client.error();
        ASSERT_TRUE(waitForJournalState(dir, "started", 30.0))
            << "job never reached the journal";
        victim.sigkill();
    }
    // The kill left the socket, pidfile and journal record behind.
    EXPECT_TRUE(fs::exists(dir + "/s.sock"));

    // Reboot on the same state: the journal resumes the job, and the
    // re-sent request must coalesce with it or hit the published
    // result — either way, bit-identical to the uninterrupted run.
    Daemon revived(dir);
    revived.flags = {"--workers", "1"};
    revived.env = {{"XPS_SERVE_CKPT_EVERY", "4"}};
    revived.start();
    const std::string resumed = rpc(revived.sock, req, 300.0);
    ASSERT_EQ(statusOf(resumed), "ok") << resumed;
    EXPECT_EQ(resultsOf(resumed), resultsOf(goldenResp));

    const std::string stats = rpc(revived.sock, "{\"op\":\"stats\"}");
    EXPECT_GE(numField(stats, "journal_recovered", 0), 1.0) << stats;
    EXPECT_GE(numField(stats, "stale_swept", 0), 1.0) << stats;
    revived.stopGracefully();
    fs::remove_all(dir);
}

// --- boot hygiene: stale socket, pidfile and journal debris ----------------

TEST(ServeBoot, SweepsStaleSocketPidfileAndJournalDebris)
{
    const std::string dir = shortTempDir();
    const std::string sock = dir + "/s.sock";
    fs::create_directories(dir + "/journal");
    // A dead daemon's droppings: pidfile with an impossible pid, a
    // leftover socket file, an orphaned journal staging temp, a torn
    // journal record, and a completed record whose response was
    // already delivered.
    std::ofstream(sock) << "";
    std::ofstream(sock + ".pid") << "999999999\n";
    const std::string orphan =
        dir + "/journal/job.aaaa.json.tmp.999999999.deadbeef";
    std::ofstream(orphan) << "{\"key\":\"aa";
    const std::string torn = dir + "/journal/job.bbbb.json";
    std::ofstream(torn) << "{\"key\":\"bb"; // no newline: torn write
    const std::string done = dir + "/journal/job.cccc.json";
    std::ofstream(done) << "{\"key\":\"cccc\",\"state\":\"completed\","
                           "\"seq\":1,\"request\":\"{}\"}\n";

    Daemon d(dir);
    d.start();
    const std::string stats = rpc(d.sock, "{\"op\":\"stats\"}");
    ASSERT_EQ(statusOf(stats), "ok") << stats;
    EXPECT_GE(numField(stats, "stale_swept", 0), 1.0) << stats;
    // All debris gone; nothing was "recovered" from it.
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_FALSE(fs::exists(torn));
    EXPECT_FALSE(fs::exists(done));
    EXPECT_EQ(numField(stats, "journal_recovered", -1), 0.0) << stats;
    d.stopGracefully();
    fs::remove_all(dir);
}

// --- degradation: quarantined rows are marked, never cached ----------------

TEST(ServeDegraded, QuarantinedMatrixIsMarkedAndNeverCached)
{
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.flags = {"--workers", "1"};
    // Visit 1 of worker.start is the matrix job child itself; visit 2
    // is the first row grandchild (gzip) under the nested supervisor.
    // With a single attempt per job, that one crash quarantines the
    // row deterministically while the sibling row and the outer job
    // complete.
    d.env = {{"XPS_FAULTS", "worker.start:crash:2"},
             {"XPS_JOB_RETRIES", "0"}};
    d.start();

    const char *req =
        "{\"op\":\"matrix\",\"id\":\"m\","
        "\"workloads\":[\"gzip\",\"mcf\"],\"instrs\":3000,"
        "\"configs\":[{},{\"sched_depth\":2,\"width\":4}]}";
    const std::string degraded = rpc(d.sock, req, 300.0);
    ASSERT_EQ(statusOf(degraded), "ok") << degraded;
    EXPECT_NE(degraded.find("\"degraded\":true"), std::string::npos)
        << degraded;
    EXPECT_NE(degraded.find("\"status\":\"missing\""),
              std::string::npos)
        << degraded;

    std::string stats = rpc(d.sock, "{\"op\":\"stats\"}");
    EXPECT_GE(numField(stats, "degraded_responses", 0), 1.0) << stats;
    // The degraded result must not have been published.
    EXPECT_EQ(numField(stats, "cache_publishes", -1), 0.0) << stats;

    // Re-ask (the fault arms are spent): a full recompute — proving
    // nothing degraded was cached — delivering every row intact.
    const std::string intact = rpc(d.sock, req, 300.0);
    ASSERT_EQ(statusOf(intact), "ok") << intact;
    EXPECT_NE(intact.find("\"cache\":\"miss\""), std::string::npos)
        << intact;
    EXPECT_EQ(intact.find("\"degraded\""), std::string::npos) << intact;
    EXPECT_EQ(intact.find("\"status\":\"missing\""), std::string::npos)
        << intact;
    d.stopGracefully();
    fs::remove_all(dir);
}

// --- environment: the daemon reads the pipeline's knobs the same way ------

TEST(ServeEnv, ZeroJobRetriesBootsAndRunsEachJobOnce)
{
    // XPS_JOB_RETRIES counts retries, as in the one-shot pipeline: 0
    // means one attempt per job, not a pool with no attempts at all.
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.flags = {"--workers", "1"};
    d.env = {{"XPS_FAULTS", "worker.start:crash:1"},
             {"XPS_JOB_RETRIES", "0"}};
    d.start();

    // Visit 1 of worker.start is this job's child: with one attempt
    // the crash fails the job instead of being retried.
    const std::string failed = rpc(d.sock, kWhatifReq);
    EXPECT_EQ(statusOf(failed), "error") << failed;
    EXPECT_NE(failed.find("after 1 attempts"), std::string::npos)
        << failed;
    // The fault arm is spent: the same request now runs once and
    // succeeds.
    const std::string ok = rpc(d.sock, kWhatifReq);
    EXPECT_EQ(statusOf(ok), "ok") << ok;

    const std::string stats = rpc(d.sock, "{\"op\":\"stats\"}");
    EXPECT_EQ(numField(stats, "failed", -1), 1.0) << stats;
    EXPECT_EQ(numField(stats, "completed", -1), 1.0) << stats;
    d.stopGracefully();
    fs::remove_all(dir);
}

// --- observability: metrics op, Prometheus export, traced flows ------------

namespace
{

/** The counters object of a metrics-op response or metrics dump. */
double
counterIn(const obs::json::Value &v, const char *name)
{
    const obs::json::Value *counters = v.find("counters");
    return counters ? counters->numberOr(name, -1) : -1;
}

/** histograms_ns[name][field] of a parsed metrics payload. */
double
histIn(const obs::json::Value &v, const char *name, const char *field)
{
    const obs::json::Value *hists = v.find("histograms_ns");
    const obs::json::Value *h = hists ? hists->find(name) : nullptr;
    return h ? h->numberOr(field, -1) : -1;
}

/**
 * Run the production xps-client against `sock` with tracing armed:
 * the client joins the daemon's session, contributing its shard to
 * the daemon-owned trace, and the daemon merges at exit. Returns the
 * client's exit code (-1 on abnormal death).
 */
int
runTracedClient(const std::string &sock, const std::string &dir,
                const std::string &tracePath,
                const std::string &request)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("XPS_RESULTS_DIR", dir.c_str(), 1);
        ::setenv("XPS_SERVE_SOCKET", sock.c_str(), 1);
        ::setenv("XPS_TRACE_JSON", tracePath.c_str(), 1);
        ::unsetenv("XPS_METRICS_JSON");
        ::unsetenv("XPS_FAULTS");
        const std::string log = dir + "/client.log";
        ::freopen(log.c_str(), "a", stdout);
        ::freopen(log.c_str(), "a", stderr);
        ::execl(XPS_CLIENT_BIN, XPS_CLIENT_BIN, request.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** `xps-client top` against `sock`: its stdout. */
std::string
clientTop(const std::string &sock, const std::string &dir)
{
    const std::string out = dir + "/top.txt";
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("XPS_RESULTS_DIR", dir.c_str(), 1);
        ::freopen(out.c_str(), "w", stdout);
        ::execl(XPS_CLIENT_BIN, XPS_CLIENT_BIN, "--socket", sock.c_str(),
                "top", static_cast<char *>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    std::ifstream in(out);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

} // namespace

// Latency histograms are always on: a daemon with no metrics, trace
// or log knob at all still answers `metrics` with percentiles, and
// `xps-client top` renders them.
TEST(ServeMetrics, HistogramsAnswerWithNoObservabilityKnobs)
{
    for (const char *knob :
         {"XPS_METRICS_JSON", "XPS_METRICS_EXPORT_S", "XPS_TRACE_JSON",
          "XPS_LOG_JSON", "XPS_LOG_LEVEL"})
        ::unsetenv(knob);
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.flags = {"--workers", "1"};
    d.start();

    ASSERT_EQ(statusOf(rpc(d.sock, kWhatifReq, 120.0)), "ok");
    const std::string live =
        rpc(d.sock, "{\"op\":\"metrics\",\"id\":\"m1\"}");
    ASSERT_EQ(statusOf(live), "ok") << live;
    obs::json::Value v;
    ASSERT_TRUE(obs::json::parse(live, v)) << live;
    EXPECT_GT(histIn(v, "serve.job", "count"), 0.0) << live;
    EXPECT_GT(histIn(v, "sim.run", "count"), 0.0) << live;

    // top's latency table: name, count, p50, p95, p99, max (ms).
    const std::string top = clientTop(d.sock, dir);
    for (const std::string name : {"serve.job", "sim.run"}) {
        std::istringstream lines(top);
        std::string line;
        bool found = false;
        while (std::getline(lines, line)) {
            std::istringstream row(line);
            std::string first;
            double count = 0, p50 = 0, p95 = 0, p99 = 0;
            if (!(row >> first) || first != name)
                continue;
            found = static_cast<bool>(row >> count >> p50 >> p95 >> p99);
            EXPECT_GT(count, 0.0) << line;
            EXPECT_GT(p50, 0.0) << line;
            EXPECT_GE(p99, p50) << line;
        }
        EXPECT_TRUE(found) << name << " missing from top:\n" << top;
    }
    d.stopGracefully();
    fs::remove_all(dir);
}

// The metrics op is the live view of the same registry the at-exit
// XPS_METRICS_JSON dump serializes: counters and percentiles agree,
// and the worker's sim.run samples are visible in the parent — the
// rollup pipeline end to end.
TEST(ServeMetrics, MetricsOpMatchesFinalDumpAndSeesWorkerSamples)
{
    const std::string dir = shortTempDir();
    const std::string dump = dir + "/metrics.json";
    Daemon d(dir);
    d.flags = {"--workers", "1"};
    d.env = {{"XPS_METRICS_JSON", dump}};
    d.start();

    ASSERT_EQ(statusOf(rpc(d.sock, kWhatifReq, 120.0)), "ok");

    const std::string live =
        rpc(d.sock, "{\"op\":\"metrics\",\"id\":\"m1\"}");
    ASSERT_EQ(statusOf(live), "ok") << live;
    obs::json::Value liveV;
    ASSERT_TRUE(obs::json::parse(live, liveV)) << live;
    EXPECT_EQ(liveV.stringOr("op", ""), "metrics");
    EXPECT_EQ(counterIn(liveV, "serve.completed"), 1.0) << live;
    EXPECT_GE(counterIn(liveV, "serve.requests"), 2.0) << live;
    // The worker recorded sim.run in its own (reset) registry; the
    // rollup folded it into the daemon's before the response went out.
    EXPECT_GT(histIn(liveV, "sim.run", "count"), 0.0) << live;
    EXPECT_GE(counterIn(liveV, "pool.rollups_merged"), 1.0) << live;
    EXPECT_GT(histIn(liveV, "serve.job", "p50"), 0.0) << live;
    EXPECT_GE(histIn(liveV, "serve.job", "p99"),
              histIn(liveV, "serve.job", "p50"))
        << live;

    d.stopGracefully();

    // The at-exit dump is the same registry, later: everything the
    // live view reported is still there, identically for quantities
    // no further request could advance.
    std::ifstream in(dump);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    obs::json::Value dumpV;
    ASSERT_TRUE(obs::json::parse(content, dumpV)) << content;
    EXPECT_EQ(counterIn(dumpV, "serve.completed"), 1.0);
    EXPECT_EQ(histIn(dumpV, "serve.job", "count"),
              histIn(liveV, "serve.job", "count"));
    EXPECT_EQ(histIn(dumpV, "serve.job", "p50"),
              histIn(liveV, "serve.job", "p50"));
    EXPECT_EQ(histIn(dumpV, "serve.job", "p99"),
              histIn(liveV, "serve.job", "p99"));
    EXPECT_EQ(histIn(dumpV, "sim.run", "count"),
              histIn(liveV, "sim.run", "count"));
    fs::remove_all(dir);
}

TEST(ServeMetrics, PrometheusSnapshotExportedOnCadence)
{
    const std::string dir = shortTempDir();
    Daemon d(dir);
    d.flags = {"--workers", "1"};
    d.env = {{"XPS_METRICS_EXPORT_S", "0.05"}};
    d.start();

    ASSERT_EQ(statusOf(rpc(d.sock, kWhatifReq, 120.0)), "ok");
    d.stopGracefully(); // drain writes a final snapshot

    std::ifstream in(dir + "/metrics.prom");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_FALSE(text.empty()) << "no Prometheus snapshot in " << dir;
    EXPECT_NE(text.find("# TYPE xps_serve_requests_total counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("xps_serve_completed_total 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("xps_serve_job_ns{quantile=\"0.99\"}"),
              std::string::npos)
        << text;
    // No torn half-written file may ever be left beside it.
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(
                      "metrics.prom.tmp"),
                  std::string::npos)
            << entry.path();
    }
    fs::remove_all(dir);
}

// The tentpole acceptance: one explore request through the production
// client yields one merged Perfetto timeline in which client, daemon
// and worker spans share the minted rid and are linked by flow events.
TEST(ServeTrace, ExploreRequestFlowsClientToDaemonToWorker)
{
    const std::string dir = shortTempDir();
    const std::string trace = dir + "/trace.json";
    const std::string log = dir + "/log.jsonl";
    Daemon d(dir);
    d.flags = {"--workers", "1"};
    d.env = {{"XPS_TRACE_JSON", trace}, {"XPS_LOG_JSON", log}};
    d.start();

    const int rc = runTracedClient(
        d.sock, dir, trace,
        "{\"op\":\"explore\",\"id\":\"e1\",\"workloads\":[\"gzip\"],"
        "\"instrs\":3000,\"sa_iters\":16,\"rounds\":1,\"seed\":3}");
    EXPECT_EQ(rc, 0) << "xps-client failed; see " << dir
                     << "/client.log";

    d.stopGracefully(); // the daemon owns the merge, at exit

    std::ifstream in(trace);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    obs::json::Value root;
    ASSERT_TRUE(obs::json::parse(content, root))
        << "merged trace unreadable: " << trace;
    const obs::json::Value *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // The client minted the rid; find it on its client.request span,
    // then follow it across processes.
    std::string rid;
    for (const auto &ev : events->items) {
        if (ev.stringOr("name", "") == "client.request") {
            rid = ev.stringOr("rid", "");
            break;
        }
    }
    ASSERT_FALSE(rid.empty()) << "client span carries no rid";
    EXPECT_EQ(rid.rfind("c", 0), 0u); // client-minted: "c<pid>-..."

    std::set<int> ridPids;
    std::set<std::string> ridNames;
    std::vector<std::string> flowPhs;
    for (const auto &ev : events->items) {
        if (ev.stringOr("rid", "") == rid) {
            ridPids.insert(static_cast<int>(ev.numberOr("pid", 0)));
            ridNames.insert(ev.stringOr("name", ""));
        }
        if (ev.stringOr("cat", "") == "flow" &&
            ev.find("args") != nullptr &&
            ev.find("args")->stringOr("rid", "") == rid)
            flowPhs.push_back(ev.stringOr("ph", ""));
    }
    // Client, daemon, worker: three processes on one request id.
    EXPECT_GE(ridPids.size(), 3u) << "pids sharing rid " << rid;
    EXPECT_TRUE(ridNames.count("client.request"));
    EXPECT_TRUE(ridNames.count("serve.queue")); // daemon side
    EXPECT_TRUE(ridNames.count("pool.job"));    // worker side
    // One complete flow: starts at the client, finishes (binding
    // enclosing) at the last hop, stepping through each process.
    ASSERT_GE(flowPhs.size(), 3u);
    EXPECT_EQ(flowPhs.front(), "s");
    EXPECT_EQ(flowPhs.back(), "f");

    // The structured log merged beside it, rid-stamped and parseable.
    std::ifstream logIn(log);
    std::string logContent((std::istreambuf_iterator<char>(logIn)),
                           std::istreambuf_iterator<char>());
    ASSERT_FALSE(logContent.empty()) << "no merged log at " << log;
    bool sawCompletion = false;
    std::istringstream lines(logContent);
    std::string line;
    while (std::getline(lines, line)) {
        obs::json::Value ev;
        ASSERT_TRUE(obs::json::parse(line, ev)) << line;
        if (ev.stringOr("msg", "") == "job completed" &&
            ev.stringOr("rid", "") == rid)
            sawCompletion = true;
    }
    EXPECT_TRUE(sawCompletion)
        << "no rid-stamped completion event in " << log;
    fs::remove_all(dir);
}

// --- the serve fault matrix ------------------------------------------------

namespace
{

struct ServeFaultCase
{
    const char *site;
    const char *kind;
};

class ServeFaultMatrix : public testing::TestWithParam<ServeFaultCase>
{
};

} // namespace

/**
 * The headline robustness contract, extended to the daemon: a fault
 * injected at any serve.* site yields either an explicit response
 * (ok or error — never silence plus a wrong answer) or a dead/hung
 * daemon whose restart serves the same request bit-identically.
 */
TEST_P(ServeFaultMatrix, InjectedFaultIsExplicitOrRecoverable)
{
    const ServeFaultCase &c = GetParam();
    std::string spec = std::string(c.site) + ":" + c.kind + ":1";
    // The nightly campaign randomizes the trigger visit instead.
    if (const char *seed = std::getenv("XPS_FAULT_MATRIX_SEED"))
        spec = std::string(c.site) + ":" + c.kind + ":0:" + seed;
    std::fprintf(stderr, "[serve-fault] XPS_FAULTS=%s\n",
                 spec.c_str());

    const std::string want = goldenWhatifResults();
    ASSERT_FALSE(want.empty());

    const std::string dir = shortTempDir();
    {
        Daemon victim(dir);
        victim.flags = {"--workers", "1"};
        victim.env = {{"XPS_FAULTS", spec}};
        victim.start();

        const std::string resp = rpc(victim.sock, kWhatifReq, 8.0);
        if (!resp.empty()) {
            // Whatever the fault did, a delivered response must be an
            // explicit verdict; a correct one must match the golden
            // payload exactly.
            const std::string status = statusOf(resp);
            EXPECT_TRUE(status == "ok" || status == "error") << resp;
            if (status == "ok") {
                EXPECT_EQ(resultsOf(resp), want);
            }
        }
        // Crash faults already killed it; hangs need the kill. Either
        // way the daemon is now "power cut" without cleanup.
        victim.killHard();
    }

    // Reboot on the same state directory: stale socket takeover,
    // journal recovery, and a torn store entry (shortwrite at
    // serve.publish) being rejected rather than served.
    Daemon revived(dir);
    revived.flags = {"--workers", "1"};
    revived.start();
    const std::string resp = rpc(revived.sock, kWhatifReq, 120.0);
    ASSERT_EQ(statusOf(resp), "ok") << resp;
    EXPECT_EQ(resultsOf(resp), want);
    revived.stopGracefully();
    fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, ServeFaultMatrix,
    testing::Values(ServeFaultCase{"serve.accept", "crash"},
                    ServeFaultCase{"serve.accept", "hang"},
                    ServeFaultCase{"serve.journal", "crash"},
                    ServeFaultCase{"serve.journal", "hang"},
                    ServeFaultCase{"serve.journal", "shortwrite"},
                    ServeFaultCase{"serve.journal", "enospc"},
                    ServeFaultCase{"serve.publish", "crash"},
                    ServeFaultCase{"serve.publish", "hang"},
                    ServeFaultCase{"serve.publish", "shortwrite"},
                    ServeFaultCase{"serve.publish", "enospc"},
                    ServeFaultCase{"serve.respond", "crash"},
                    ServeFaultCase{"serve.respond", "hang"}),
    [](const testing::TestParamInfo<ServeFaultCase> &info) {
        std::string name = std::string(info.param.site) + "_" +
                           info.param.kind;
        for (char &ch : name) {
            if (ch == '.')
                ch = '_';
        }
        return name;
    });
