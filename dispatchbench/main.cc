// dispatchbench — drives the FoodMatch dispatch stack through whole
// simulated days and reports end-to-end and per-layer metrics.
//
//   dispatchbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--corrupt CHECK]
//
// One run: generate the workload's inputs from --seed (untimed), then a
// cold set-up (hub-label warm-up, policy, engines, shards, WAL; timed as
// setup_s), then whole rounds until --seconds have passed. A round
// simulates the workload's days one after another, each on a freshly built
// stack over the already-warm oracle; a run's samples pool over all its
// days. Every day is checked (checks.h); a failed check exits 1 without a
// result. The last stdout line is one JSON object: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A traced run traces
// every day and also runs its first day once untraced, before the traced
// pass, for the tracing overhead; spans are written as Chrome trace-event
// JSON under .bench_traces/. See README.md for the workloads and metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "foodmatch/foodmatch.h"
#include "probe.h"
#include "spans.h"

namespace dbench {
namespace {

struct WorkloadSpec {
  const char* name;
  // GrubHub profile at scale 0.5 (twice Table II demand) with a haversine
  // policy oracle; otherwise CityB at 1/80 with the hub-label oracle.
  bool grubhub;
  // Fleet and orders of the shift-change stress scenario, its shift
  // timeline applied by a ShiftRoster.
  bool shift_change;
  // false: the simulator drives one DispatchEngine. true: the serving path,
  // WindowExecutor → ShardedDispatchEngine with a per-shard WAL.
  bool serving;
  // Open-loop window pacing (wall seconds per window); 0 runs flat out.
  double pace_slot_s;
  double start_h;
  double end_h;
  // Days per round: --seed s simulates days s·days ... s·days + days − 1.
  int days;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"cityb-day", false, false, false, 0.0, 10.0, 15.0, 3},
    {"cityb-shifts-paced", false, true, true, 0.160, 10.0, 15.0, 2},
    {"grubhub-day", true, false, false, 0.0, 10.0, 22.0, 5},
};

// Shards on the serving path. One: at K >= 2 the sharded engine rejects
// orders on some days that K = 1 delivers (see README.md, "Left out").
constexpr int kServingShards = 1;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"orders_per_s", "orders/s"},
    {"decision_p50_ms", "ms"}, {"decision_p90_ms", "ms"},
    {"latency_p50_ms", "ms"},  {"latency_p95_ms", "ms"},
    {"delivery_p50_s", "s"},   {"delivery_p95_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"graph.warm_s", "s"},
    {"graph.road_queries", "count"},
    {"graph.haversine_queries", "count"},
    {"core.decide_s", "s"},
    {"core.apply_s", "s"},
    {"core.batching_s", "s"},
    {"core.foodgraph_s", "s"},
    {"core.matching_s", "s"},
    {"core.cost_evaluations", "count"},
    {"core.footprint_replays", "count"},
    {"core.footprint_rebuilds", "count"},
    {"core.pair_hits", "count"},
    {"core.pair_misses", "count"},
    {"core.memo_hits", "count"},
    {"core.memo_misses", "count"},
    {"intake.drain_s", "s"},
    {"intake.blocked_pushes", "count"},
    {"sim.rebuild_s", "s"},
    {"sim.step_s", "s"},
    {"serving.shard_window_s", "s"},
    {"serving.route_s", "s"},
    {"serving.merge_s", "s"},
    {"serving.shard_imbalance", "ratio"},
    {"serving.migrations", "count"},
    {"durability.wal_bytes", "bytes"},
    {"durability.wal_syncs", "count"},
    {"durability.fsync_s", "s"},
    {"pacer.lateness_s", "s"},
    {"trace.overhead_pct", "%"},
};

// Lanes for the warm-up, the decision pipeline and the rebuilds: the
// reference box's 4 cores, but never more busy threads than the machine
// has.
int Lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 4);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string corrupt;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--corrupt") {
      args->corrupt = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && have_seed && args->seconds > 0.0 &&
         args->trace >= 0;
}

// Everything the harness hands the program, generated from the seed: the
// seed picks the day (the order stream); city, restaurants and fleet are
// fixed per workload.
struct Day {
  std::vector<fm::Order> orders;
  std::vector<fm::Vehicle> fleet;
  std::unique_ptr<ShiftTimeline> shifts;  // shift-change workload only
};

struct Inputs {
  fm::Workload city;  // the first day's workload: network, profile
  std::vector<Day> days;
};

Inputs Generate(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  for (int d = 0; d < spec.days; ++d) {
    const std::uint64_t day_index =
        seed * static_cast<std::uint64_t>(spec.days) +
        static_cast<std::uint64_t>(d);
    fm::Workload w;
    Day day;
    if (spec.shift_change) {
      fm::StressGenOptions options;
      options.start_time = spec.start_h * 3600.0;
      options.end_time = spec.end_h * 3600.0;
      options.day = day_index;
      fm::StressWorkload stress = fm::GenerateStressWorkload(
          fm::CityBProfile(80.0), fm::StressScenario("shift-change"),
          options);
      day.shifts = std::make_unique<ShiftTimeline>(stress.events);
      w = std::move(stress.base);
    } else {
      fm::WorkloadOptions options;
      options.start_time = spec.start_h * 3600.0;
      options.end_time = spec.end_h * 3600.0;
      options.day = day_index;
      w = fm::GenerateWorkload(
          spec.grubhub ? fm::GrubhubProfile(0.5) : fm::CityBProfile(80.0),
          options);
    }
    day.orders = std::move(w.orders);
    day.fleet = std::move(w.fleet);
    in.days.push_back(std::move(day));
    // The day only varies the order stream; the city is the same.
    if (d == 0) in.city = std::move(w);
  }
  return in;
}

// What set-up builds once per process.
struct Platform {
  std::unique_ptr<fm::DistanceOracle> road;       // hub labels
  std::unique_ptr<fm::DistanceOracle> haversine;  // GrubHub policy only
  std::unique_ptr<fm::GridRegionPartitioner> partitioner;
  std::string wal_dir;
  double warm_s = 0.0;

  const fm::DistanceOracle* policy_oracle() const {
    return haversine != nullptr ? haversine.get() : road.get();
  }
};

// The dispatch stack one day runs on. Members are declared so that
// everything is destroyed before what it borrows (executor → sharded
// engine → registry; engine → policy).
struct Stack {
  std::unique_ptr<fm::obs::MetricsRegistry> registry;  // traced days
  fm::PhaseProfile profile;  // intake.* and serving.* phases, traced days
  std::unique_ptr<fm::AssignmentPolicy> policy;
  std::unique_ptr<fm::DispatchEngine> engine;
  std::unique_ptr<fm::ShardedDispatchEngine> sharded;
  std::unique_ptr<fm::WindowExecutor> executor;
  fm::DispatchCore* core = nullptr;

  fm::EdgeCacheStats CacheStats() const {
    std::vector<const fm::AssignmentPolicy*> policies;
    if (policy != nullptr) policies.push_back(policy.get());
    if (sharded != nullptr) {
      for (int s = 0; s < sharded->num_shards(); ++s) {
        policies.push_back(sharded->shard(s).policy());
      }
    }
    fm::EdgeCacheStats sum;
    for (const fm::AssignmentPolicy* p : policies) {
      const auto* matching = dynamic_cast<const fm::MatchingPolicy*>(p);
      if (matching == nullptr || matching->edge_cache() == nullptr) continue;
      const fm::EdgeCacheStats s = matching->edge_cache()->AggregatedStats();
      sum.footprint_replays += s.footprint_replays;
      sum.footprint_rebuilds += s.footprint_rebuilds;
      sum.pair_hits += s.pair_hits;
      sum.pair_misses += s.pair_misses;
      sum.duration_memo_hits += s.duration_memo_hits;
      sum.duration_memo_misses += s.duration_memo_misses;
    }
    return sum;
  }
};

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec,
                                  const fm::Config& config,
                                  const Platform& platform, bool traced,
                                  SpanRecorder* spans) {
  auto stack = std::make_unique<Stack>();
  if (traced) stack->registry = std::make_unique<fm::obs::MetricsRegistry>();
  if (!spec.serving) {
    {
      ScopedSpan span(spans, "core.PolicyRegistry::Create", "core");
      stack->policy = fm::PolicyRegistry::Global().Create(
          "foodmatch", platform.policy_oracle(), config);
    }
    ScopedSpan span(spans, "core.DispatchEngine()", "core");
    stack->engine = std::make_unique<fm::DispatchEngine>(
        stack->policy.get(), config,
        fm::DispatchEngineOptions{.measure_wall_clock = true});
    stack->core = stack->engine.get();
    return stack;
  }
  {
    ScopedSpan span(spans, "serving.ShardedDispatchEngine()", "serving");
    fm::ShardedEngineOptions options;
    options.engine.measure_wall_clock = true;
    options.durability.dir = platform.wal_dir;
    options.durability.snapshot_every_windows = config.snapshot_every_windows;
    if (traced) {
      options.profile = &stack->profile;
      options.metrics = stack->registry.get();
    }
    stack->sharded = std::make_unique<fm::ShardedDispatchEngine>(
        platform.partitioner.get(), "foodmatch", platform.policy_oracle(),
        config, fm::PolicyOptions{}, options);
  }
  ScopedSpan span(spans, "core.WindowExecutor()", "core");
  fm::WindowExecutorOptions options;
  options.stages = config.shards;
  options.queue_capacity =
      static_cast<std::size_t>(config.intake_queue_capacity);
  options.prestage = config.intake_prestage;
  options.oracle = platform.road.get();
  options.router = fm::MakeRegionStageRouter(platform.partitioner.get());
  if (traced) options.profile = &stack->profile;
  stack->executor =
      std::make_unique<fm::WindowExecutor>(stack->sharded.get(), options);
  stack->core = stack->executor.get();
  return stack;
}

// Samples of one simulated day.
struct DayRun {
  std::uint64_t orders = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;  // first event → last window's rebuild
  double busy_s = 0.0;  // the same minus pacer sleep
  std::vector<double> decisions;
  std::vector<double> latencies;
  std::vector<double> deliveries;
  std::map<std::string, double> layer;
};

double SnapshotValue(const fm::obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  for (const fm::obs::InstrumentValue& v : snapshot.instruments) {
    if (v.name != name) continue;
    switch (v.kind) {
      case fm::obs::InstrumentKind::kCounter:
        return static_cast<double>(v.counter);
      case fm::obs::InstrumentKind::kGauge:
        return v.gauge;
      case fm::obs::InstrumentKind::kHistogram:
        return v.histogram.sum;
    }
  }
  return 0.0;
}

// Simulates `day` on `stack`; returns an error message on a failed check
// (the samples are then meaningless).
std::string RunDay(const WorkloadSpec& spec, const fm::Config& config,
                   const fm::Workload& city, const Day& day,
                   const Platform& platform, Stack& stack, SpanRecorder* spans,
                   const std::string& corrupt, DayRun* run) {
  ProbeOptions probe_options;
  probe_options.pace_slot_s = spec.pace_slot_s;
  probe_options.max_orders_per_vehicle = config.max_orders_per_vehicle;
  probe_options.spans = spans;
  if (corrupt == "matching") probe_options.corrupt_window = 3;
  Probe probe(stack.core, probe_options);

  fm::SimulationInput input;
  input.network = &city.network;
  input.oracle = platform.road.get();
  input.config = config;
  input.fleet = day.fleet;
  input.orders = day.orders;
  input.start_time = spec.start_h * 3600.0;
  input.end_time = spec.end_h * 3600.0;
  input.measure_wall_clock = true;

  std::unique_ptr<ShiftRoster> roster;
  fm::DispatchCore* front = &probe;
  if (day.shifts != nullptr) {
    roster = std::make_unique<ShiftRoster>(
        &probe, day.shifts.get(), input.start_time,
        config.accumulation_window, input.end_time + input.drain_time);
    front = roster.get();
  }

  Clock::time_point last_window_done;
  std::vector<double> imbalance;
  input.after_window = [&](fm::Seconds, std::uint64_t) {
    last_window_done = Clock::now();
    if (stack.registry != nullptr && stack.sharded != nullptr) {
      imbalance.push_back(SnapshotValue(stack.registry->Snapshot(),
                                        "serving.makespan_imbalance"));
    }
  };

  const std::uint64_t road0 = platform.road->query_count();
  const std::uint64_t hav0 =
      platform.haversine != nullptr ? platform.haversine->query_count() : 0;
  fm::SimulationResult result;
  {
    fm::Simulator sim(std::move(input), front);
    ScopedSpan span(spans, "sim.Simulator::Run", "sim");
    result = sim.Run();
  }
  const std::uint64_t road_queries = platform.road->query_count() - road0;
  const std::uint64_t hav_queries =
      platform.haversine != nullptr
          ? platform.haversine->query_count() - hav0
          : 0;

  // Self-test corruptions of the day's output (--corrupt).
  if (corrupt == "conservation") result.outcomes.pop_back();
  if (corrupt == "readiness" || corrupt == "xdt") {
    for (fm::OrderOutcome& o : result.outcomes) {
      if (o.state != fm::OrderOutcome::State::kDelivered) continue;
      if (corrupt == "readiness") {
        o.delivered_at = day.orders[o.id].placed_at;
      } else {
        result.metrics.total_xdt_seconds += 1.0;
      }
      break;
    }
  }

  std::string error = probe.error();
  {
    ScopedSpan span(spans, "bench.checks", "bench");
    if (error.empty() && roster != nullptr) error = roster->error();
    if (error.empty()) {
      error = CheckConservation(day.orders, result,
                                probe.distinct_orders());
    }
    if (error.empty()) error = CheckReadiness(day.orders, result);
    if (error.empty()) {
      error = CheckTotalXdt(day.orders, result, *platform.road);
    }
  }
  if (!error.empty()) return error;

  const fm::Metrics& m = result.metrics;
  const double wall = SecondsBetween(probe.first_event(), last_window_done);
  run->orders = m.orders_total;
  run->failed = m.orders_rejected + m.orders_pending_at_end;
  run->wall_s = wall;
  run->busy_s = wall - probe.pacer_sleep_seconds();
  for (const Probe::Window& w : probe.windows()) {
    run->decisions.push_back(w.decision_s);
  }
  run->latencies = probe.OrderLatencies();
  for (const fm::OrderOutcome& o : result.outcomes) {
    if (o.state == fm::OrderOutcome::State::kDelivered) {
      run->deliveries.push_back(o.delivered_at - day.orders[o.id].placed_at);
    }
  }

  // Per-layer numbers (only reported from traced days).
  std::map<std::string, double>& layer = run->layer;
  layer["graph.warm_s"] = platform.warm_s;
  layer["graph.road_queries"] = static_cast<double>(road_queries);
  layer["graph.haversine_queries"] = static_cast<double>(hav_queries);
  layer["core.decide_s"] = probe.decide_seconds();
  layer["core.apply_s"] = probe.apply_seconds();
  layer["core.batching_s"] = m.phase_batching_seconds;
  layer["core.foodgraph_s"] = m.phase_graph_seconds;
  layer["core.matching_s"] = m.phase_matching_seconds;
  layer["core.cost_evaluations"] = static_cast<double>(m.cost_evaluations);
  const fm::EdgeCacheStats cache = stack.CacheStats();
  layer["core.footprint_replays"] =
      static_cast<double>(cache.footprint_replays);
  layer["core.footprint_rebuilds"] =
      static_cast<double>(cache.footprint_rebuilds);
  layer["core.pair_hits"] = static_cast<double>(cache.pair_hits);
  layer["core.pair_misses"] = static_cast<double>(cache.pair_misses);
  layer["core.memo_hits"] = static_cast<double>(cache.duration_memo_hits);
  layer["core.memo_misses"] = static_cast<double>(cache.duration_memo_misses);
  const auto& phases = stack.profile.phases();
  const auto phase_seconds = [&](const char* name) {
    auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.seconds;
  };
  layer["intake.drain_s"] = phase_seconds("intake.drain");
  layer["intake.blocked_pushes"] =
      stack.executor != nullptr
          ? static_cast<double>(stack.executor->blocked_pushes())
          : 0.0;
  layer["sim.rebuild_s"] = m.phase_rebuild_seconds;
  layer["sim.step_s"] = wall - probe.decide_seconds() - probe.apply_seconds() -
                        m.phase_rebuild_seconds - probe.pacer_sleep_seconds();
  layer["serving.shard_window_s"] = phase_seconds("serving.shard_window");
  layer["serving.route_s"] = phase_seconds("serving.route");
  layer["serving.merge_s"] = phase_seconds("serving.merge");
  layer["serving.shard_imbalance"] =
      imbalance.empty() ? 0.0 : fm::Mean(imbalance);
  layer["serving.migrations"] =
      stack.sharded != nullptr
          ? static_cast<double>(stack.sharded->migrations())
          : 0.0;
  if (stack.registry != nullptr) {
    const fm::obs::MetricsSnapshot snapshot = stack.registry->Snapshot();
    layer["durability.wal_bytes"] =
        SnapshotValue(snapshot, "wal.bytes_written");
    layer["durability.wal_syncs"] = SnapshotValue(snapshot, "wal.syncs");
    layer["durability.fsync_s"] = SnapshotValue(snapshot, "wal.fsync_seconds");
  }
  double lateness = 0.0;
  for (const Probe::Window& w : probe.windows()) lateness += w.due_lateness_s;
  layer["pacer.lateness_s"] =
      lateness / static_cast<double>(std::max<std::size_t>(
                     probe.windows().size(), 1));

  std::fprintf(stderr,
               "day: %llu orders (%llu rejected, %llu pending), %zu windows, "
               "%.3f s busy, decision p50/p90/max %.1f/%.1f/%.1f ms, "
               "latency p50/p95 %.1f/%.1f ms%s\n",
               static_cast<unsigned long long>(run->orders),
               static_cast<unsigned long long>(m.orders_rejected),
               static_cast<unsigned long long>(m.orders_pending_at_end),
               probe.windows().size(), run->busy_s,
               fm::Percentile(run->decisions, 50.0) * 1e3,
               fm::Percentile(run->decisions, 90.0) * 1e3,
               fm::Percentile(run->decisions, 100.0) * 1e3,
               fm::Percentile(run->latencies, 50.0) * 1e3,
               fm::Percentile(run->latencies, 95.0) * 1e3,
               spans != nullptr ? " (traced)" : "");
  if (roster != nullptr) {
    std::fprintf(stderr, "  shift roster: %llu announcements, %llu "
                 "retirements\n",
                 static_cast<unsigned long long>(roster->announcements()),
                 static_cast<unsigned long long>(roster->retirements()));
  }
  return "";
}

void PrintResult(std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<std::pair<Metric, double>>& metrics) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].second);
    json += (i > 0 ? ", \"" : "\"") + std::string(metrics[i].first.name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].first.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Removes the per-run WAL directory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ignored;
    if (!path.empty()) std::filesystem::remove_all(path, ignored);
  }
};

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dispatchbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--corrupt CHECK]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  SpanRecorder recorder(process_start);
  SpanRecorder* spans = args.trace ? &recorder : nullptr;

  Inputs in;
  {
    ScopedSpan span(spans, "bench.Generate", "bench");
    in = Generate(*spec, args.seed);
  }
  const fm::Seconds start = spec->start_h * 3600.0;
  const fm::Seconds end = spec->end_h * 3600.0;
  fm::Config config;
  config.accumulation_window = in.city.profile.default_delta;
  config.threads = Lanes();
  config.shards = spec->serving ? kServingShards : 1;
  config.Validate();
  std::size_t orders = 0;
  for (const Day& day : in.days) orders += day.orders.size();
  std::fprintf(stderr,
               "%s seed %llu: %zu nodes, %d days, %zu orders, %zu vehicles, "
               "%d lanes\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               in.city.network.num_nodes(), spec->days, orders,
               in.days.front().fleet.size(), config.threads);

  // ---- Cold set-up (setup_s) ----
  ScratchDir wal;
  const Clock::time_point setup_start = Clock::now();
  Platform platform;
  platform.road = std::make_unique<fm::DistanceOracle>(
      &in.city.network, fm::OracleBackend::kHubLabels);
  {
    ScopedSpan span(spans, "graph.DistanceOracle::WarmSlots", "graph");
    const Clock::time_point warm_start = Clock::now();
    fm::ThreadPool pool(config.threads);
    platform.road->WarmSlots(
        fm::HourSlot(start),
        std::min(fm::kSlotsPerDay - 1, fm::HourSlot(end) + 2), &pool);
    platform.warm_s = SecondsBetween(warm_start, Clock::now());
  }
  if (spec->grubhub) {
    platform.haversine = std::make_unique<fm::DistanceOracle>(
        &in.city.network, fm::OracleBackend::kHaversine);
  }
  if (spec->serving) {
    ScopedSpan span(spans, "serving.GridRegionPartitioner()", "serving");
    platform.partitioner = std::make_unique<fm::GridRegionPartitioner>(
        &in.city.network, config.shards);
    wal.path = ".bench_wal/" + std::string(spec->name) + "-" +
               std::to_string(::getpid());
    platform.wal_dir = wal.path;
  }
  // The first day's stack is part of the cold set-up; a traced run starts
  // with its untraced reference pass, so this stack is never traced.
  std::unique_ptr<Stack> stack =
      BuildStack(*spec, config, platform, /*traced=*/false, spans);
  const double setup_s = SecondsBetween(setup_start, Clock::now());

  // ---- Rounds of days ----
  std::vector<DayRun> runs;
  double reference_busy_s = 0.0;  // untraced pass of day 0 (traced runs)
  std::uint64_t attempted = 0, failed = 0;
  const Clock::time_point measure_start = Clock::now();
  int rounds = 0;
  do {
    for (std::size_t d = 0; d < in.days.size(); ++d) {
      const bool first = rounds == 0 && d == 0;
      const int passes = args.trace && first ? 2 : 1;
      for (int pass = 0; pass < passes; ++pass) {
        const bool traced = args.trace && pass + 1 == passes;
        if (stack == nullptr) {
          stack = BuildStack(*spec, config, platform, traced,
                             traced ? spans : nullptr);
        }
        DayRun run;
        const std::string error = RunDay(
            *spec, config, in.city, in.days[d], platform, *stack,
            traced ? spans : nullptr, first && pass == 0 ? args.corrupt : "",
            &run);
        stack.reset();
        if (!error.empty()) {
          std::fprintf(stderr, "CHECK FAILED (round %d, day %zu): %s\n",
                       rounds, d, error.c_str());
          return 1;
        }
        attempted += run.orders;
        failed += run.failed;
        if (args.trace && !traced) {
          reference_busy_s = run.busy_s;
        } else {
          runs.push_back(std::move(run));
        }
      }
    }
    ++rounds;
  } while (SecondsBetween(measure_start, Clock::now()) < args.seconds);

  {
    ScopedSpan span(spans, "bench.CheckOracleSample", "bench");
    const std::string error =
        CheckOracleSample(*platform.road, args.seed, start, end, 300,
                          args.corrupt == "oracle" ? 1.0 : 0.0);
    if (!error.empty()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
      return 1;
    }
  }

  std::vector<std::pair<Metric, double>> out;
  if (!args.trace) {
    double orders_total = 0.0, wall_total = 0.0;
    std::vector<double> decisions, latencies, deliveries;
    for (const DayRun& r : runs) {
      orders_total += static_cast<double>(r.orders);
      wall_total += r.wall_s;
      decisions.insert(decisions.end(), r.decisions.begin(),
                       r.decisions.end());
      latencies.insert(latencies.end(), r.latencies.begin(),
                       r.latencies.end());
      deliveries.insert(deliveries.end(), r.deliveries.begin(),
                        r.deliveries.end());
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double values[] = {
        setup_s,
        orders_total / wall_total,
        fm::Percentile(decisions, 50.0) * 1e3,
        fm::Percentile(decisions, 90.0) * 1e3,
        fm::Percentile(latencies, 50.0) * 1e3,
        fm::Percentile(latencies, 95.0) * 1e3,
        fm::Percentile(deliveries, 50.0),
        fm::Percentile(deliveries, 95.0),
        static_cast<double>(usage.ru_maxrss) / 1024.0,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    // Per-layer values are means over the traced days.
    runs.front().layer["trace.overhead_pct"] =
        (runs.front().busy_s / reference_busy_s - 1.0) * 100.0;
    for (const Metric& metric : kPerLayer) {
      double sum = 0.0;
      std::size_t n = 0;
      for (const DayRun& r : runs) {
        auto it = r.layer.find(metric.name);
        if (it == r.layer.end()) continue;
        sum += it->second;
        ++n;
      }
      out.emplace_back(metric, n > 0 ? sum / static_cast<double>(n) : 0.0);
    }
    std::filesystem::create_directories(".bench_traces");
    const std::string path =
        ".bench_traces/" + std::string(spec->name) + ".json";
    if (!recorder.WriteChromeJson(path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%zu spans)\n", path.c_str(),
                 recorder.size());
  }
  std::fprintf(stderr, "%d rounds of %d days, setup %.3f s (warm-up %.3f s)\n",
               rounds, spec->days, setup_s, platform.warm_s);
  PrintResult(attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace dbench

int main(int argc, char** argv) { return dbench::Main(argc, argv); }
