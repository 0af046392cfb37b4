#include <string>

#include "perfbench/src/trace.hpp"
#include "perfbench/src/workloads.hpp"

namespace perfbench {

namespace {

SetupTimes one_setup(bool traced, const std::function<SetupTimes()>& setup) {
  Tracer::get().set_enabled(traced);
  SetupTimes t;
  {
    Span s("bench.setup");
    t = setup();
  }
  Tracer::get().set_enabled(false);
  progress(std::string(traced ? "traced " : "") + "setup: " +
           std::to_string(t.total_s) + "s");
  return t;
}

}  // namespace

void run_setups(const RunArgs& args, Record& r,
                const std::function<SetupTimes()>& setup) {
  if (!args.trace) {
    r.metrics["setup_s"] = one_setup(false, setup).total_s;
    return;
  }
  SetupTimes u;
  SetupTimes t;
  if (args.traced_first) {
    t = one_setup(true, setup);
    u = one_setup(false, setup);
  } else {
    u = one_setup(false, setup);
    t = one_setup(true, setup);
  }
  r.metrics["setup_s"] = u.total_s;
  r.metrics["graph.generate_s"] = t.generate_s;
  r.metrics["core.preload_insert_batch_s"] = t.preload_s;
  r.metrics["tier.enforce_budget_s"] = t.enforce_s;
  r.metrics["overhead.setup_s"] = t.total_s - u.total_s;
}

void run_phases(const RunArgs& args, Record& r,
                const std::function<PhaseOut(double, bool)>& phase) {
  if (!args.trace) {
    const PhaseOut u = phase(args.seconds, false);
    progress("measured phase done: " + std::to_string(u.latency_samples) +
             " latency samples, " + std::to_string(u.rounds) +
             " trials or rounds");
    r.metrics["latency_ms_p50"] = u.p50_ms;
    r.metrics["latency_ms_tail"] = u.tail_ms;
    r.metrics["throughput_meps"] = u.meps;
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    return;
  }
  PhaseOut u;
  PhaseOut t;
  double rss_growth = 0;
  const auto untraced = [&] {
    u = phase(args.seconds / 2, false);
    progress("untraced phase done");
  };
  const auto traced = [&] {
    const double rss_before = peak_rss_mb();
    Tracer::get().set_enabled(true);
    t = phase(args.seconds / 2, true);
    Tracer::get().set_enabled(false);
    rss_growth = peak_rss_mb() - rss_before;
    progress("traced phase done");
  };
  if (args.traced_first) {
    traced();
    untraced();
  } else {
    untraced();
    traced();
  }

  for (const auto& [name, v] : u.timings) r.metrics[name] = v;
  for (const auto& [name, v] : t.counters) r.metrics[name] = v;
  fill_layer_metrics(t.layers, t.edges_written, r);
  r.metrics["samples.latency"] = static_cast<double>(u.latency_samples);
  r.metrics["samples.rounds"] = static_cast<double>(u.rounds);
  r.metrics["overhead.peak_rss_mb"] = rss_growth;
  r.metrics["overhead.latency_ms_p50"] = t.p50_ms - u.p50_ms;
  r.metrics["overhead.latency_ms_tail"] = t.tail_ms - u.tail_ms;
  r.metrics["overhead.throughput_meps"] = t.meps - u.meps;

  Tracer& tr = Tracer::get();
  for (const auto& [layer, s] : tr.self_seconds_by_layer())
    r.metrics["self." + layer + "_s"] = s;
  r.metrics["trace.spans"] = static_cast<double>(tr.count());
  if (!args.spans_out.empty() && !tr.dump(args.spans_out, 200000))
    r.fail("could not write span dump to " + args.spans_out);
}

}  // namespace perfbench
