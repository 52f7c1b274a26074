/**
 * @file
 * xps-client: one request line to a running xps-serve, one response
 * line to stdout.
 *
 *   xps-client [--socket PATH] [--timeout S] \
 *       ping|stats|metrics|top|'<json>'
 *
 * Exit codes map the response status for scripting: 0 ok, 1 error,
 * 2 transport failure (no daemon, timeout, torn connection),
 * 3 overloaded / draining (retry later).
 *
 * Distributed tracing (DESIGN.md §14): when the request carries no
 * "rid", the client mints one and injects it, then stamps its own
 * client.request span with it. With XPS_TRACE_JSON set on both sides,
 * the merged timeline links the client, daemon, and worker spans of
 * this request into one Perfetto flow. The client always joins the
 * daemon's session (obs::joinSession()): it leaves its trace and log
 * shards for the daemon to merge and never merges itself.
 *
 * `top` is the one-shot health view: daemon queue state, overload
 * ratio, and SLO percentiles rendered from the `metrics` op.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.hh"
#include "obs/tracer.hh"
#include "serve/client.hh"
#include "util/env.hh"
#include "util/logging.hh"

using namespace xps;

namespace
{

/** Mint a request id unique across processes and invocations. */
std::string
mintRid()
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "c%d-%llx",
                  static_cast<int>(::getpid()),
                  static_cast<unsigned long long>(
                      obs::detail::nowNs() & 0xffffffffull));
    return buf;
}

/**
 * Ensure the request line carries a "rid", minting and injecting one
 * when absent. Malformed lines pass through untouched — the daemon's
 * closed-world parser owns that rejection.
 */
std::string
withRid(const std::string &line, std::string &rid)
{
    obs::json::Value v;
    if (!obs::json::parse(line, v) || !v.isObject())
        return line;
    rid = v.stringOr("rid", "");
    if (!rid.empty())
        return line;
    rid = mintRid();
    const size_t brace = line.find('{');
    std::string out = line;
    out.insert(brace + 1,
               "\"rid\":\"" + rid + (v.fields.empty() ? "\"" : "\","));
    return out;
}

double
ms(double ns)
{
    return ns / 1e6;
}

/** Render the `metrics` response as a one-shot health view. */
void
renderTop(const obs::json::Value &v)
{
    std::printf("xps-serve health\n");
    std::printf("  queued %.0f / %.0f max, running %.0f of %.0f "
                "workers\n",
                v.numberOr("queued", 0), v.numberOr("queue_max", 0),
                v.numberOr("running", 0), v.numberOr("workers", 0));
    const obs::json::Value *counters = v.find("counters");
    if (counters && counters->isObject()) {
        const double requests = counters->numberOr("serve.requests", 0);
        const double shed = counters->numberOr("serve.shed", 0);
        std::printf(
            "  requests %.0f, completed %.0f, failed %.0f, "
            "shed %.0f (overload ratio %.1f%%), coalesced %.0f\n",
            requests, counters->numberOr("serve.completed", 0),
            counters->numberOr("serve.failed", 0), shed,
            requests > 0 ? 100.0 * shed / requests : 0.0,
            counters->numberOr("serve.coalesced", 0));
        std::printf("  cache hits %.0f / misses %.0f\n",
                    counters->numberOr("serve.cache_hits", 0),
                    counters->numberOr("serve.cache_misses", 0));
    }
    const obs::json::Value *hists = v.find("histograms_ns");
    if (!hists || !hists->isObject() || hists->fields.empty())
        return;
    std::printf("  %-24s %10s %10s %10s %10s %10s\n", "latency (ms)",
                "count", "p50", "p95", "p99", "max");
    for (const auto &[name, h] : hists->fields) {
        if (!h.isObject())
            continue;
        std::printf("  %-24s %10.0f %10.2f %10.2f %10.2f %10.2f\n",
                    name.c_str(), h.numberOr("count", 0),
                    ms(h.numberOr("p50", 0)), ms(h.numberOr("p95", 0)),
                    ms(h.numberOr("p99", 0)),
                    ms(h.numberOr("max", 0)));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Before anything can exit(): a fatal() on a bad argument must
    // not merge the daemon's shards.
    obs::joinSession();
    std::string socket = envString(
        "XPS_SERVE_SOCKET", Budget::get().resultsDir + "/xps-serve.sock");
    double timeout = 30.0;
    std::string line;
    bool top = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("xps-client: %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket")
            socket = value();
        else if (arg == "--timeout")
            timeout = std::strtod(value(), nullptr);
        else if (arg == "--help" || arg == "-h") {
            std::printf("usage: xps-client [--socket PATH] "
                        "[--timeout S] "
                        "ping|stats|metrics|top|'<json request>'\n");
            return 0;
        } else if (line.empty()) {
            // Shorthands for the inline ops; anything else is a raw
            // request line.
            if (arg == "ping")
                line = "{\"op\":\"ping\"}";
            else if (arg == "stats")
                line = "{\"op\":\"stats\"}";
            else if (arg == "metrics")
                line = "{\"op\":\"metrics\"}";
            else if (arg == "top") {
                line = "{\"op\":\"metrics\"}";
                top = true;
            } else
                line = arg;
        } else {
            fatal("xps-client: one request per invocation (got "
                  "extra arg %s)", arg.c_str());
        }
    }
    if (line.empty()) {
        std::fprintf(stderr, "xps-client: no request given\n");
        return 2;
    }

    obs::setProcessName("serve/client");
    std::string rid;
    line = withRid(line, rid);
    obs::RequestScope ridScope(rid);

    serve::Client client;
    std::string response;
    bool ok;
    {
        obs::ScopedSpan span("client.request", "client", [&] {
            return obs::Args().add("rid", rid);
        });
        ok = client.connect(socket, timeout) &&
             client.request(line, response, timeout);
    }
    if (!ok) {
        std::fprintf(stderr, "xps-client: %s\n",
                     client.error().c_str());
        return 2;
    }

    obs::json::Value v;
    if (!obs::json::parse(response, v)) {
        std::printf("%s\n", response.c_str());
        return 2;
    }
    const std::string status = v.stringOr("status", "");
    if (top && status == "ok")
        renderTop(v);
    else
        std::printf("%s\n", response.c_str());
    if (status == "ok")
        return 0;
    if (status == "overloaded" || status == "retry")
        return 3;
    return 1;
}
