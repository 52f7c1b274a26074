#include "sim/simulator.hh"

#include <memory>

#include "check/invariant_checker.hh"
#include "obs/tracer.hh"
#include "sim/ooo_core.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "workload/trace.hh"

namespace xps
{

namespace
{

/** sim.run span (one predicted branch when tracing is off) plus the
 *  always-on sim.run latency histogram. */
class SimRunObserver
{
  public:
    SimRunObserver(const WorkloadProfile &profile,
                   const SimOptions &opts)
        : span_("sim.run", "sim",
                [&] {
                    return obs::Args()
                        .add("workload", profile.name)
                        .add("instrs", opts.measureInstrs);
                }),
          begin_(obs::detail::nowNs())
    {
    }

    ~SimRunObserver()
    {
        static Histogram &histogram = Metrics::global().histogram("sim.run");
        histogram.record(obs::detail::nowNs() - begin_);
    }

  private:
    obs::ScopedSpan span_;
    uint64_t begin_;
};

} // namespace

SimStats
simulate(const WorkloadProfile &profile, const CoreConfig &config,
         const SimOptions &opts)
{
    XPS_FAULT_POINT("sim.run");
    SimRunObserver observer(profile, opts);
    OooCore core(config);
    std::unique_ptr<InvariantChecker> owned;
    if (opts.checker) {
        core.setChecker(opts.checker);
    } else if (opts.check || invariantCheckingForced()) {
        owned = std::make_unique<InvariantChecker>(
            config, /*fail_fast=*/true);
        core.setChecker(owned.get());
    }
    std::shared_ptr<const TraceBuffer> trace =
        sharedTrace(profile, opts.streamId, opts.traceOps());
    if (trace->size() < opts.traceOps()) {
        fatal("simulate: trace '%s' holds %llu ops, run needs "
              ">= %llu",
              trace->profileName().c_str(),
              static_cast<unsigned long long>(trace->size()),
              static_cast<unsigned long long>(opts.traceOps()));
    }
    return core.run(std::move(trace), opts.measureInstrs,
                    opts.effectiveWarmup());
}

} // namespace xps
