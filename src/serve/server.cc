#include "serve/server.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "comm/perf_matrix.hh"
#include "explore/explorer.hh"
#include "explore/supervisor.hh"
#include "obs/json.hh"
#include "obs/log.hh"
#include "obs/tracer.hh"
#include "sim/cells.hh"
#include "util/atomic_file.hh"
#include "util/env.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/shutdown.hh"

namespace xps
{
namespace serve
{

namespace fs = std::filesystem;

namespace
{

/** %.17g round-trips a double exactly, so identical computations
 *  yield byte-identical CSV cells and responses. */
std::string
fmtDouble(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

/** True when a result carries a quarantined (missing) row. */
bool
isDegraded(const CsvDoc &doc)
{
    size_t status = SIZE_MAX;
    for (size_t c = 0; c < doc.header.size(); ++c) {
        if (doc.header[c] == "status")
            status = c;
    }
    if (status == SIZE_MAX)
        return false;
    for (const auto &row : doc.rows) {
        if (row[status] != "ok")
            return true;
    }
    return false;
}

// --- worker bodies (run in a forked pool child) ---------------------

int
runWhatif(const Request &req, const CsvManifest &identity,
          const std::string &resultPath)
{
    CsvDoc doc;
    doc.header = {"workload", "ipt"};
    // One worker runs the workloads in turn: fanning them out over
    // prefetchCells() was measured not to pay (DESIGN.md §11).
    SimOptions sim;
    sim.measureInstrs = req.instrs;
    for (const WorkloadProfile &p : req.workloads) {
        ProcPool::beat();
        const SimStats stats = simulateCell(p, req.configs[0], sim);
        doc.rows.push_back({p.name, fmtDouble(stats.ipt())});
    }
    writeCsv(resultPath, doc, identity, "worker.result");
    return 0;
}

int
runMatrix(const Request &req, const CsvManifest &identity,
          const std::string &resultPath, const ServerOptions &opts)
{
    // Nested supervision: this worker forks one grandchild per row,
    // so a crashing cell costs a retry and a repeatedly failing row
    // is quarantined — marked in the result, never silently dropped.
    SupervisorOptions sup_opts;
    sup_opts.workers = 1;
    sup_opts.heartbeatTimeoutSeconds = opts.heartbeatTimeoutSeconds;
    sup_opts.maxAttempts = opts.maxAttempts;
    sup_opts.backoffBaseSeconds = 0.01;
    sup_opts.backoffCapSeconds = 0.1;
    sup_opts.workDir = resultPath + ".mx";
    Supervisor sup(sup_opts);
    std::vector<std::string> missing;
    const PerfMatrix matrix = PerfMatrix::buildSupervised(
        req.workloads, req.configs, req.instrs, sup, &missing);
    auto isMissing = [&](const std::string &name) {
        for (const std::string &m : missing) {
            if (m == name)
                return true;
        }
        return false;
    };
    CsvDoc doc;
    doc.header = {"workload", "config", "ipt", "status"};
    for (size_t w = 0; w < req.workloads.size(); ++w) {
        const bool miss = isMissing(req.workloads[w].name);
        for (size_t c = 0; c < req.configs.size(); ++c) {
            doc.rows.push_back(
                {req.workloads[w].name, std::to_string(c),
                 miss ? "nan" : fmtDouble(matrix.ipt(w, c)),
                 miss ? "missing" : "ok"});
        }
    }
    std::error_code ec;
    fs::remove_all(sup_opts.workDir, ec);
    writeCsv(resultPath, doc, identity, "worker.result");
    return 0;
}

int
runExplore(const Request &req, const CsvManifest &identity,
           const std::string &resultPath, const ServerOptions &opts,
           const std::string &ckptDir)
{
    ExplorerOptions eopts;
    eopts.evalInstrs = req.instrs;
    eopts.saIters = req.saIters;
    eopts.rounds = req.rounds;
    eopts.seed = req.seed;
    eopts.threads = 1;
    eopts.finalEvalInstrs = 2 * req.instrs;
    // The journal makes a killed daemon re-run this job; the annealer
    // checkpoints make the re-run resume bit-identically instead of
    // paying the whole exploration again.
    eopts.checkpointEvery = opts.checkpointEvery;
    eopts.checkpointDir = ckptDir;
    Explorer explorer(req.workloads, eopts);
    const std::vector<WorkloadResult> results = explorer.exploreAll();
    CsvDoc doc;
    doc.header = {"workload", "ipt"};
    const auto cfg_header = CoreConfig::csvHeader();
    doc.header.insert(doc.header.end(), cfg_header.begin(),
                      cfg_header.end());
    for (const WorkloadResult &r : results) {
        std::vector<std::string> row = {r.workload,
                                        fmtDouble(r.bestIpt)};
        const auto cfg_row = r.best.toCsvRow();
        row.insert(row.end(), cfg_row.begin(), cfg_row.end());
        doc.rows.push_back(std::move(row));
    }
    writeCsv(resultPath, doc, identity, "worker.result");
    return 0;
}

} // namespace

ServerOptions
ServerOptions::fromEnv()
{
    ServerOptions opts;
    const std::string base = Budget::get().resultsDir;
    opts.socketPath =
        envString("XPS_SERVE_SOCKET", base + "/xps-serve.sock");
    opts.stateDir = envString("XPS_SERVE_DIR", base + "/serve");
    opts.queueMax = envUInt("XPS_SERVE_QUEUE_MAX", 16);
    opts.defaultDeadlineS = static_cast<double>(
        envUInt("XPS_SERVE_DEADLINE_S", 0));
    opts.drainS =
        static_cast<double>(envUInt("XPS_SERVE_DRAIN_S", 5));
    opts.workers =
        static_cast<int>(envInt("XPS_SERVE_WORKERS", 2));
    // The supervision knobs mean what they mean for the pipeline:
    // XPS_JOB_RETRIES counts retries, so attempts = 1 + retries.
    const SupervisorOptions sup = SupervisorOptions::fromEnv();
    opts.heartbeatTimeoutSeconds = sup.heartbeatTimeoutSeconds;
    opts.maxAttempts = sup.maxAttempts;
    opts.checkpointEvery = envUInt("XPS_SERVE_CKPT_EVERY", 8);
    // Fractional cadences matter here (CI scrapes fast test runs),
    // so this knob alone parses as a double.
    opts.metricsExportS = std::strtod(
        envString("XPS_METRICS_EXPORT_S", "0").c_str(), nullptr);
    return opts;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      pool_([&] {
          ProcPoolOptions p;
          p.workers = opts_.workers;
          p.heartbeatTimeoutSeconds = opts_.heartbeatTimeoutSeconds;
          p.maxAttempts = opts_.maxAttempts;
          p.backoffBaseSeconds = 0.02;
          p.backoffCapSeconds = 0.5;
          return p;
      }()),
      store_(opts_.stateDir + "/store"),
      journal_(opts_.stateDir + "/journal")
{
    // A client that disconnects mid-response must cost an EPIPE
    // errno, not the daemon's life.
    ::signal(SIGPIPE, SIG_IGN);
    std::error_code ec;
    fs::create_directories(opts_.stateDir + "/staging", ec);
}

Server::~Server()
{
    for (const Connection &c : conns_)
        ::close(c.fd);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        std::error_code ec;
        fs::remove(opts_.socketPath, ec);
        fs::remove(opts_.socketPath + ".pid", ec);
    }
}

void
Server::closeInheritedFds()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (const Connection &c : conns_)
        ::close(c.fd);
}

namespace
{

/** Liveness for pidfile takeover. kill(pid, 0) alone is not enough:
 *  it succeeds for zombies, and a SIGKILL'd daemon whose parent has
 *  not reaped it yet would block its own successor forever. A zombie
 *  owns no socket — treat it as dead. */
bool
pidIsRunning(long pid)
{
    if (::kill(static_cast<pid_t>(pid), 0) != 0)
        return false;
    std::string stat;
    if (!readFile("/proc/" + std::to_string(pid) + "/stat", stat))
        return true; // no procfs to refine the kill() verdict
    // State is the first field after the parenthesised comm (which
    // may itself contain spaces and parens).
    const size_t paren = stat.rfind(')');
    for (size_t i = paren == std::string::npos ? 0 : paren + 1;
         i < stat.size(); ++i) {
        if (stat[i] == ' ')
            continue;
        return stat[i] != 'Z';
    }
    return true;
}

} // namespace

void
Server::takeoverSocket()
{
    const std::string pidfile = opts_.socketPath + ".pid";
    std::string content;
    if (readFile(pidfile, content)) {
        const long pid = std::strtol(content.c_str(), nullptr, 10);
        if (pid > 0 && pidIsRunning(pid))
            fatal("xps-serve: another daemon (pid %ld) owns %s", pid,
                  opts_.socketPath.c_str());
        // Dead owner: sweep its socket and pidfile.
        std::error_code ec;
        fs::remove(pidfile, ec);
        fs::remove(opts_.socketPath, ec);
        Metrics::global().counter("serve.stale_swept").add();
        inform("xps-serve: swept stale socket of dead pid %ld", pid);
    } else if (fs::exists(opts_.socketPath)) {
        // Socket without a pidfile: a crashed daemon never wrote or
        // already lost its pidfile. Nobody can own it — sweep.
        std::error_code ec;
        fs::remove(opts_.socketPath, ec);
        Metrics::global().counter("serve.stale_swept").add();
        inform("xps-serve: swept orphaned socket %s",
               opts_.socketPath.c_str());
    }
    atomicWriteFile(pidfile, std::to_string(::getpid()) + "\n");
}

void
Server::boot()
{
    obs::setProcessName("serve/daemon");
    sockaddr_un addr = {};
    if (opts_.socketPath.size() >= sizeof(addr.sun_path))
        fatal("xps-serve: socket path is longer than sun_path (%zu "
              "bytes): %s", sizeof(addr.sun_path),
              opts_.socketPath.c_str());
    takeoverSocket();
    recoverJournal();

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("xps-serve: socket: %s", std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("xps-serve: bind(%s): %s", opts_.socketPath.c_str(),
              std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        fatal("xps-serve: listen: %s", std::strerror(errno));
    inform("xps-serve: listening on %s (%d workers, queue max %zu)",
           opts_.socketPath.c_str(), pool_.options().workers,
           opts_.queueMax);
    maybeExportMetrics(true);
    booted_ = true;
}

void
Server::recoverJournal()
{
    for (const JournalRecord &rec : journal_.recover()) {
        Request req;
        std::string error;
        if (!parseRequest(rec.request, req, error) ||
            !req.isCompute()) {
            warn("journal: dropping unparsable recovered job %s (%s)",
                 rec.key.c_str(), error.c_str());
            journal_.remove(rec.key);
            continue;
        }
        const CsvManifest identity = requestIdentity(req);
        CsvDoc doc;
        if (store_.lookup(identity, doc)) {
            // The crash landed between publish and record removal.
            journal_.remove(rec.key);
            continue;
        }
        Job job;
        job.seq = rec.seq;
        job.key = rec.key;
        // A client-minted rid survives recovery through the journaled
        // request line; a daemon-minted one did not, so re-mint.
        if (req.rid.empty())
            req.rid = "r" + std::to_string(::getpid()) + "-" +
                      std::to_string(rec.seq);
        job.req = std::move(req);
        job.identity = identity;
        job.requestLine = rec.request;
        job.resultPath =
            opts_.stateDir + "/staging/" + rec.key + ".csv";
        job.accepted = Clock::now();
        jobs_.push_back(std::move(job));
        inform("journal: resuming job %s (%s)", rec.key.c_str(),
               opName(jobs_.back().req.op));
    }
}

int
Server::run()
{
    boot();
    while (!stopRequested())
        step(20);
    return drain();
}

void
Server::step(int timeoutMs)
{
    if (!booted_)
        boot();
    dispatch();
    pool_.poll(0);
    harvest();
    maybeExportMetrics(false);

    std::vector<pollfd> fds;
    fds.push_back({listenFd_, POLLIN, 0});
    for (const Connection &c : conns_)
        fds.push_back({c.fd, POLLIN, 0});
    // Bounded wait: pool supervision and signal checks stay live even
    // when no socket stirs.
    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                         timeoutMs);
    if (n <= 0)
        return; // timeout or EINTR; the caller loops
    // Walk backwards: closing a connection erases from conns_. The
    // accept comes last so conns_ and fds stay index-aligned (an
    // early accept would grow conns_ past the polled set and read
    // revents past the end of fds).
    for (size_t i = conns_.size(); i-- > 0;) {
        const short ev = fds[i + 1].revents;
        if (ev & (POLLERR | POLLHUP))
            closeClient(i);
        else if (ev & POLLIN)
            readClient(i);
    }
    if (fds[0].revents & POLLIN)
        acceptClient();
}

void
Server::acceptClient()
{
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0)
        return;
    XPS_FAULT_POINT("serve.accept");
    Metrics::global().counter("serve.connections").add();
    obs::instant("serve.accept", "serve");
    conns_.push_back({fd, {}});
}

void
Server::closeClient(size_t idx)
{
    const int fd = conns_[idx].fd;
    ::close(fd);
    conns_.erase(conns_.begin() + static_cast<long>(idx));
    // The job outlives its waiters: the result still lands in the
    // store, so a reconnecting client gets a cache hit.
    for (Job &job : jobs_) {
        auto &w = job.waiters;
        for (size_t i = w.size(); i-- > 0;) {
            if (w[i].first == fd)
                w.erase(w.begin() + static_cast<long>(i));
        }
    }
}

void
Server::readClient(size_t idx)
{
    char buf[4096];
    const ssize_t n = ::read(conns_[idx].fd, buf, sizeof(buf));
    if (n <= 0) {
        closeClient(idx);
        return;
    }
    conns_[idx].buf.append(buf, static_cast<size_t>(n));
    if (conns_[idx].buf.size() > (1u << 20)) {
        warn("xps-serve: dropping client with a >1MiB pending line");
        closeClient(idx);
        return;
    }
    const int fd = conns_[idx].fd;
    std::string &acc = conns_[idx].buf;
    size_t nl;
    while ((nl = acc.find('\n')) != std::string::npos) {
        const std::string line = acc.substr(0, nl);
        acc.erase(0, nl + 1);
        if (!line.empty())
            handleLine(fd, line);
        // handleLine may have closed this connection (write error);
        // re-find it to stay safe.
        bool alive = false;
        for (const Connection &c : conns_)
            alive |= c.fd == fd;
        if (!alive)
            return;
    }
}

void
Server::handleLine(int fd, const std::string &line)
{
    Metrics &metrics = Metrics::global();
    metrics.counter("serve.requests").add();
    Request req;
    std::string error;
    if (!parseRequest(line, req, error)) {
        metrics.counter("serve.bad_requests").add();
        obs::log::event(obs::log::Level::Warn, "serve",
                        "rejected request", [&] {
                            return obs::Args().add("error", error);
                        });
        // req.id survives any failure past the JSON parse itself, so
        // most rejections still echo the client's correlation id.
        respond(fd, errorResponse(req.id, error));
        return;
    }
    // Every span and log event from here to the response (and, for
    // compute ops, through dispatch, the forked worker and harvest)
    // carries this request id; the merger turns the shared rid into
    // Perfetto flow events.
    if (req.rid.empty())
        req.rid = "d" + std::to_string(::getpid()) + "-" +
                  std::to_string(++ridCounter_);
    obs::RequestScope ridScope(req.rid);
    obs::instant("serve.request", "serve", [&] {
        return obs::Args()
            .add("op", opName(req.op))
            .add("client", req.client);
    });
    if (req.op == Request::Op::Ping) {
        respond(fd, "{\"id\":\"" + obs::json::escape(req.id) +
                        "\",\"status\":\"ok\",\"op\":\"ping\"}");
        return;
    }
    if (req.op == Request::Op::Stats) {
        respond(fd, statsResponse(req.id));
        return;
    }
    if (req.op == Request::Op::Metrics) {
        respond(fd, metricsResponse(req.id));
        return;
    }
    handleCompute(fd, req, line);
}

void
Server::handleCompute(int fd, const Request &req,
                      const std::string &line)
{
    Metrics &metrics = Metrics::global();
    const CsvManifest identity = requestIdentity(req);
    CsvDoc doc;
    if (store_.lookup(identity, doc)) {
        respond(fd, okResponse(req.id, doc, true, false));
        return;
    }
    const std::string key = identityKey(identity);
    for (Job &job : jobs_) {
        if (job.key == key) {
            job.waiters.emplace_back(fd, req.id);
            metrics.counter("serve.coalesced").add();
            return;
        }
    }
    size_t queued = 0;
    for (const Job &job : jobs_)
        queued += job.started ? 0 : 1;
    if (queued >= opts_.queueMax) {
        metrics.counter("serve.shed").add();
        obs::log::event(obs::log::Level::Warn, "serve",
                        "request shed by admission control", [&] {
                            return obs::Args()
                                .add("op", opName(req.op))
                                .add("client", req.client)
                                .add("queued",
                                     static_cast<uint64_t>(queued));
                        });
        const double retry = std::max(
            1.0, static_cast<double>(jobs_.size()) /
                     std::max(1, pool_.options().workers));
        respond(fd, overloadedResponse(req.id, retry));
        return;
    }

    Job job;
    job.seq = journal_.nextSeq();
    job.key = key;
    job.req = req;
    job.identity = identity;
    job.requestLine = line;
    job.resultPath = opts_.stateDir + "/staging/" + key + ".csv";
    job.waiters.emplace_back(fd, req.id);
    job.accepted = Clock::now();
    journalRecord({key, "accepted", job.seq, line});
    metrics.counter("serve.accepted").add();
    metrics.histogram("serve.queue_depth").record(queued + 1);
    jobs_.push_back(std::move(job));
}

/** journal_.record with the §14 instrumentation: a serve.journal
 *  span on the timeline and a serve.journal_write latency sample —
 *  fsync latency is the daemon's dominant inline cost. */
void
Server::journalRecord(const JournalRecord &rec)
{
    const uint64_t t0 = obs::detail::nowNs();
    journal_.record(rec);
    const uint64_t t1 = obs::detail::nowNs();
    if (obs::enabled())
        obs::detail::emitSpan("serve.journal", "serve", t0, t1,
                              obs::Args()
                                  .add("key", rec.key)
                                  .add("state", rec.state)
                                  .str());
    Metrics::global().histogram("serve.journal_write").record(t1 - t0);
}

ProcJob
Server::makeProcJob(Job &job)
{
    ProcJob pj;
    pj.name = std::string(opName(job.req.op)) + "." + job.key;
    pj.deadlineSeconds = job.req.deadlineS > 0
                             ? job.req.deadlineS
                             : opts_.defaultDeadlineS;
    const Request req = job.req;
    const CsvManifest identity = job.identity;
    const std::string result_path = job.resultPath;
    const ServerOptions opts = opts_;
    const std::string ckpt_dir =
        opts_.stateDir + "/staging/ckpt." + job.key;
    pj.run = [this, req, identity, result_path, opts, ckpt_dir]() {
        // In the forked worker: drop the daemon's listening socket and
        // client connections. A SIGKILL'd daemon's surviving
        // descendants must not keep its accept queue connectable (a
        // client would connect into a backlog nobody will ever accept
        // from) or hold client connections half-open.
        closeInheritedFds();
        // Inherit the request context: every span this worker emits
        // (pool.job, sim.run, anneal.*) joins the request's flow in
        // the merged timeline.
        obs::setRequestContext(req.rid);
        switch (req.op) {
          case Request::Op::Whatif:
            return runWhatif(req, identity, result_path);
          case Request::Op::Matrix:
            return runMatrix(req, identity, result_path, opts);
          case Request::Op::Explore:
            return runExplore(req, identity, result_path, opts,
                              ckpt_dir);
          default:
            return 125;
        }
    };
    pj.onSuccess = [result_path, identity]() {
        CsvDoc doc;
        return readCsvValidated(result_path, doc, identity);
    };
    return pj;
}

void
Server::dispatch()
{
    while (started_ <
           static_cast<size_t>(pool_.options().workers)) {
        // Fair share: among queued jobs, serve the client that has
        // waited longest since its last dispatch; ties (and new
        // clients) go to the oldest request.
        Job *pick = nullptr;
        for (Job &job : jobs_) {
            if (job.started)
                continue;
            if (!pick) {
                pick = &job;
                continue;
            }
            const auto it = lastServed_.find(job.req.client);
            const auto pt = lastServed_.find(pick->req.client);
            const uint64_t js =
                it == lastServed_.end() ? 0 : it->second;
            const uint64_t ps =
                pt == lastServed_.end() ? 0 : pt->second;
            if (js < ps || (js == ps && job.seq < pick->seq))
                pick = &job;
        }
        if (!pick)
            return;
        obs::RequestScope ridScope(pick->req.rid);
        // The accepted->dispatched wait is the queue's contribution
        // to the request's latency: one serve.queue span on the
        // timeline, one serve.queue_wait histogram sample.
        const auto now = Clock::now();
        const uint64_t waitNs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - pick->accepted)
                .count());
        if (obs::enabled()) {
            const uint64_t nowNs = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now.time_since_epoch())
                    .count());
            obs::detail::emitSpan("serve.queue", "serve",
                                  nowNs - waitNs, nowNs,
                                  obs::Args()
                                      .add("op", opName(pick->req.op))
                                      .add("key", pick->key)
                                      .str());
        }
        Metrics::global().histogram("serve.queue_wait").record(waitNs);
        journalRecord(
            {pick->key, "started", pick->seq, pick->requestLine});
        pick->ticket = pool_.submit(makeProcJob(*pick));
        pick->started = true;
        lastServed_[pick->req.client] = pick->seq;
        ++started_;
        Metrics::global().counter("serve.dispatched").add();
        obs::instant("serve.dispatch", "serve", [&] {
            return obs::Args()
                .add("op", opName(pick->req.op))
                .add("key", pick->key);
        });
    }
}

void
Server::harvest()
{
    Metrics &metrics = Metrics::global();
    for (auto &[ticket, outcome] : pool_.takeCompleted()) {
        size_t idx = SIZE_MAX;
        for (size_t i = 0; i < jobs_.size(); ++i) {
            if (jobs_[i].started && jobs_[i].ticket == ticket)
                idx = i;
        }
        if (idx == SIZE_MAX)
            continue; // already drained
        Job job = std::move(jobs_[idx]);
        jobs_.erase(jobs_.begin() + static_cast<long>(idx));
        --started_;
        obs::RequestScope ridScope(job.req.rid);

        if (outcome.status == ProcJobOutcome::Status::Quarantined) {
            metrics.counter("serve.failed").add();
            obs::log::event(obs::log::Level::Error, "serve",
                            "job quarantined", [&] {
                                return obs::Args()
                                    .add("op", opName(job.req.op))
                                    .add("key", job.key)
                                    .add("attempts", outcome.attempts)
                                    .add("error", outcome.lastError);
                            });
            journal_.remove(job.key);
            answerWaiters(
                job, errorResponse(
                         "", "job failed after " +
                                 std::to_string(outcome.attempts) +
                                 " attempts: " + outcome.lastError));
            continue;
        }
        CsvDoc doc;
        if (!readCsvValidated(job.resultPath, doc, job.identity)) {
            // onSuccess validated this same file; losing it between
            // merge and harvest is a genuine server-side fault.
            metrics.counter("serve.failed").add();
            journal_.remove(job.key);
            answerWaiters(job, errorResponse(
                                   "", "result lost before harvest"));
            continue;
        }
        const bool degraded = isDegraded(doc);
        if (degraded) {
            // Never cache a degradation a healthy rerun would not
            // reproduce; the response is marked instead.
            metrics.counter("serve.degraded_responses").add();
        } else {
            const uint64_t t0 = obs::detail::nowNs();
            store_.publish(job.identity, doc);
            const uint64_t t1 = obs::detail::nowNs();
            if (obs::enabled())
                obs::detail::emitSpan(
                    "serve.publish", "serve", t0, t1,
                    obs::Args().add("key", job.key).str());
            metrics.histogram("serve.publish").record(t1 - t0);
        }
        journalRecord(
            {job.key, "completed", job.seq, job.requestLine});
        metrics.counter("serve.completed").add();
        const uint64_t jobNs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - job.accepted)
                .count());
        metrics.histogram("serve.job").record(jobNs);
        // Per-op SLO latency: accept-to-respond per operation.
        metrics.histogram(std::string("serve.op.") + opName(job.req.op))
            .record(jobNs);
        obs::log::event(obs::log::Level::Info, "serve",
                        "job completed", [&] {
                            return obs::Args()
                                .add("op", opName(job.req.op))
                                .add("key", job.key)
                                .add("ms", static_cast<double>(jobNs) /
                                               1e6)
                                .add("degraded", degraded ? 1 : 0)
                                .add("waiters",
                                     static_cast<uint64_t>(
                                         job.waiters.size()));
                        });
        for (const auto &[fd, id] : job.waiters) {
            if (connected(fd))
                respond(fd, okResponse(id, doc, false, degraded));
        }
        journal_.remove(job.key);
        std::error_code ec;
        fs::remove(job.resultPath, ec);
    }
}

bool
Server::connected(int fd) const
{
    for (const Connection &c : conns_) {
        if (c.fd == fd)
            return true;
    }
    return false;
}

void
Server::answerWaiters(Job &job, const std::string &payload)
{
    // A shared payload (error / shutting-down) for every waiter; ok
    // responses are built per waiter in harvest() so each echoes its
    // own request id.
    for (const auto &[fd, id] : job.waiters) {
        (void)id;
        if (connected(fd))
            respond(fd, payload);
    }
    job.waiters.clear();
}

void
Server::respond(int fd, const std::string &payload)
{
    obs::ScopedSpan span("serve.respond", "serve");
    XPS_FAULT_POINT("serve.respond");
    const std::string line = payload + "\n";
    size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(fd, line.data() + off, line.size() - off);
        if (n <= 0) {
            if (errno == EINTR)
                continue;
            // Client gone (EPIPE et al.): close our side; the store
            // keeps the result for its retry.
            for (size_t i = 0; i < conns_.size(); ++i) {
                if (conns_[i].fd == fd) {
                    closeClient(i);
                    break;
                }
            }
            return;
        }
        off += static_cast<size_t>(n);
    }
    Metrics::global().counter("serve.responses").add();
}

std::string
Server::statsResponse(const std::string &id) const
{
    Metrics &metrics = Metrics::global();
    size_t queued = 0;
    for (const Job &job : jobs_)
        queued += job.started ? 0 : 1;
    std::ostringstream out;
    out << "{\"id\":\"" << obs::json::escape(id)
        << "\",\"status\":\"ok\",\"op\":\"stats\""
        << ",\"queued\":" << queued
        << ",\"running\":" << started_
        << ",\"workers\":" << pool_.options().workers
        << ",\"queue_max\":" << opts_.queueMax;
    for (const char *name :
         {"serve.requests", "serve.accepted", "serve.completed",
          "serve.failed", "serve.shed", "serve.coalesced",
          "serve.cache_hits", "serve.cache_misses",
          "serve.cache_publishes", "serve.degraded_responses",
          "serve.journal_recovered", "serve.stale_swept"}) {
        // "serve.cache_hits" -> "cache_hits"
        out << ",\"" << (name + 6) << "\":"
            << metrics.counter(name).get();
    }
    out << '}';
    return out.str();
}

/**
 * The `metrics` op: the live registry — counters, timers, and
 * p50/p95/p99 from the log-scaled histograms — plus queue state, as
 * one NDJSON-framed line. Same snapshot source as the at-exit
 * XPS_METRICS_JSON dump, so a scraper and the dump always agree.
 */
std::string
Server::metricsResponse(const std::string &id) const
{
    size_t queued = 0;
    for (const Job &job : jobs_)
        queued += job.started ? 0 : 1;
    const Metrics::Snapshot snap = Metrics::global().snapshot();
    std::ostringstream out;
    out << "{\"id\":\"" << obs::json::escape(id)
        << "\",\"status\":\"ok\",\"op\":\"metrics\""
        << ",\"queued\":" << queued
        << ",\"running\":" << started_
        << ",\"workers\":" << pool_.options().workers
        << ",\"queue_max\":" << opts_.queueMax
        << ",\"counters\":{";
    for (size_t i = 0; i < snap.counters.size(); ++i)
        out << (i ? ",\"" : "\"")
            << obs::json::escape(snap.counters[i].first)
            << "\":" << snap.counters[i].second;
    out << "},\"timers_seconds\":{";
    char buf[64];
    for (size_t i = 0; i < snap.timers.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.6f",
                      snap.timers[i].second);
        out << (i ? ",\"" : "\"")
            << obs::json::escape(snap.timers[i].first) << "\":"
            << buf;
    }
    out << "},\"histograms_ns\":{";
    for (size_t i = 0; i < snap.histograms.size(); ++i) {
        const Metrics::HistogramSummary &h =
            snap.histograms[i].second;
        std::snprintf(buf, sizeof(buf), "%.1f", h.meanNs);
        out << (i ? ",\"" : "\"")
            << obs::json::escape(snap.histograms[i].first)
            << "\":{\"count\":" << h.count << ",\"p50\":" << h.p50Ns
            << ",\"p95\":" << h.p95Ns << ",\"p99\":" << h.p99Ns
            << ",\"max\":" << h.maxNs << ",\"mean\":" << buf << '}';
    }
    out << "}}";
    return out.str();
}

/** Write the Prometheus snapshot to <stateDir>/metrics.prom on the
 *  XPS_METRICS_EXPORT_S cadence (atomically — a scraper mid-read
 *  never sees a torn file). `force` flushes regardless of cadence
 *  (boot and drain). */
void
Server::maybeExportMetrics(bool force)
{
    if (opts_.metricsExportS <= 0)
        return;
    const auto now = Clock::now();
    if (!force &&
        std::chrono::duration<double>(now - lastMetricsExport_)
                .count() < opts_.metricsExportS)
        return;
    lastMetricsExport_ = now;
    Metrics::global().writePrometheus(opts_.stateDir +
                                      "/metrics.prom");
}

int
Server::drain()
{
    inform("xps-serve: drain requested; %zu job(s) in flight "
           "(%zu running)", jobs_.size(), started_);
    // Stop admissions first: no new connections, no new reads.
    ::close(listenFd_);
    std::error_code ec;
    fs::remove(opts_.socketPath, ec);
    fs::remove(opts_.socketPath + ".pid", ec);
    listenFd_ = -1;

    // Queued-but-unstarted jobs stay journaled for the next boot;
    // their waiters learn to retry instead of hanging.
    for (Job &job : jobs_) {
        if (!job.started)
            answerWaiters(job, shuttingDownResponse(""));
    }
    // Finish the running jobs within the drain budget.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opts_.drainS));
    while (started_ > 0 && Clock::now() < deadline) {
        pool_.poll(20);
        harvest();
    }
    if (started_ > 0) {
        warn("xps-serve: drain budget exhausted; %zu running job(s) "
             "stay journaled for the next boot", started_);
        // Workers die with us (PR_SET_PDEATHSIG); the journal keeps
        // their jobs.
    }
    for (const Connection &c : conns_)
        ::close(c.fd);
    conns_.clear();
    maybeExportMetrics(true); // final snapshot for the scraper
    inform("xps-serve: drained; exiting gracefully");
    return kGracefulExitCode;
}

} // namespace serve
} // namespace xps
