// The three batch workloads: congest-dense, clique-gather, beeping-sparse.
//
// One run = set-up (graph build, and for beeping-sparse a .dmg write plus
// mmap load) repeated kSetupRepeats times, one untimed warm-up pass, then
// timed passes until the time budget is spent. A pass calls
// run_registered_algorithm once per solve in the workload's list; every
// result is checked with algo_output_valid and its seed-determined
// counters (rounds, messages, bits, beeps, per-type tallies, MIS checksum)
// must equal the warm-up pass's.
//
// The traced run (--trace 1) alternates untraced and traced passes, the
// traced ones with a LayerClock attached through AlgoRunRequest::observers,
// then re-runs the workload's parallel solve at one lane.
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "graph/dmg.h"
#include "graph/generators.h"
#include "mis/registry.h"
#include "runtime/observer.h"
#include "svc/net/graph_store.h"
#include "wire/types.h"

namespace perfbench {
namespace {

using dmis::Graph;
using dmis::NodeId;
using dmis::WireMessageType;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinPasses = 3;

/// Which runtime layer a solve's round events are charged to.
enum class Layer { kNone, kCongest, kBeeping, kClique };

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCongest: return "congest";
    case Layer::kBeeping: return "beeping";
    case Layer::kClique: return "clique";
    case Layer::kNone: break;
  }
  return "none";
}

struct Solve {
  const char* algorithm;
  int lanes;
  Layer layer;
};

struct BatchWorkload {
  const char* name;
  std::function<Graph(std::uint64_t seed)> build;
  bool via_dmg;
  std::vector<Solve> solves;
};

std::vector<BatchWorkload> batch_workloads() {
  return {
      {"congest-dense",
       [](std::uint64_t seed) {
         return dmis::random_regular(NodeId{1} << 17, 64, seed,
                                     /*max_restarts=*/0);
       },
       false,
       {{"congest", 4, Layer::kCongest},
        {"ghaffari", 4, Layer::kCongest},
        {"luby", 4, Layer::kCongest}}},
      {"clique-gather",
       [](std::uint64_t seed) {
         return dmis::random_regular(NodeId{1} << 15, 16, seed);
       },
       false,
       {{"clique", 1, Layer::kClique}}},
      {"beeping-sparse",
       [](std::uint64_t seed) {
         const NodeId n = NodeId{1} << 21;
         return dmis::gnp(n, 8.0 / static_cast<double>(n - 1), seed);
       },
       true,
       // Two solve seeds each: their round counts vary by ~10% from seed
       // to seed, and the pass time with them.
       {{"beeping", 4, Layer::kBeeping},
        {"beeping", 4, Layer::kBeeping},
        {"sparsified", 1, Layer::kNone},
        {"sparsified", 1, Layer::kNone}}},
  };
}

/// Everything about a solve that the seed alone determines.
struct Signature {
  std::uint64_t rounds = 0;
  dmis::CostAccounting costs;
  std::uint64_t checksum = 0;

  bool operator==(const Signature& o) const {
    return rounds == o.rounds && costs.rounds == o.costs.rounds &&
           costs.messages == o.costs.messages && costs.bits == o.costs.bits &&
           costs.beeps == o.costs.beeps && costs.by_type == o.costs.by_type &&
           checksum == o.checksum;
  }
};

/// Clique-round categories of the per-layer split (by wire type delivered).
enum CliqueStage { kOpener, kBeepVector, kGather, kReplay, kCleanup, kOther,
                   kStageCount };

CliqueStage clique_stage(std::uint32_t types_mask) {
  const auto has = [types_mask](WireMessageType t) {
    return (types_mask >> static_cast<unsigned>(t)) & 1U;
  };
  if (has(WireMessageType::kGatherEdge) ||
      has(WireMessageType::kGatherAnnotation)) {
    return kGather;
  }
  if (has(WireMessageType::kSparsifiedOpener)) return kOpener;
  if (has(WireMessageType::kPhaseBeepVector)) return kBeepVector;
  if (has(WireMessageType::kPhaseOutcome)) return kReplay;
  if (has(WireMessageType::kLeaderElect) ||
      has(WireMessageType::kResidualPresence) ||
      has(WireMessageType::kResidualEdge) ||
      has(WireMessageType::kMisDecision)) {
    return kCleanup;
  }
  return kOther;
}

/// Benchmark-side span recorder. The time between two events belongs to
/// the step the later event closes: for the CONGEST and beeping engines,
/// round_begin -> messages_delivered is send + deliver and
/// messages_delivered -> round_end is receive + frontier compaction; for
/// the clique, whose routing work precedes its round_begin, the whole
/// interval up to a round_end belongs to that round's wire-type category.
class LayerClock final : public dmis::RoundObserver {
 public:
  explicit LayerClock(Layer layer) : layer(layer) {}

  void on_round_begin(const dmis::RoundContext& ctx) override {
    if (layer == Layer::kClique) return;
    lap();
    live_sum += static_cast<double>(ctx.live);
    ++rounds;
  }
  void on_messages_delivered(const dmis::RoundContext&, std::uint64_t count,
                             std::uint64_t) override {
    if (layer == Layer::kClique) return;
    send_deliver_s += lap();
    messages += count;
  }
  void on_wire_delivered(const dmis::RoundContext&, WireMessageType type,
                         std::uint64_t, std::uint64_t) override {
    round_types_ |= 1U << static_cast<unsigned>(type);
  }
  void on_round_end(const dmis::RoundContext&) override {
    if (layer != Layer::kClique) {
      receive_s += lap();
      return;
    }
    const CliqueStage stage = clique_stage(round_types_);
    stage_s[stage] += lap();
    if (stage == kGather) {
      gather_rss_bytes =
          std::max(gather_rss_bytes, dmis::bench::current_rss_bytes());
    }
    round_types_ = 0;
  }

  Layer layer;
  double send_deliver_s = 0.0;
  double receive_s = 0.0;
  double live_sum = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  double stage_s[kStageCount] = {};
  std::uint64_t gather_rss_bytes = 0;

 private:
  double lap() {
    const double now = clock_.seconds();
    const double d = now - last_;
    last_ = now;
    return d;
  }

  WallTimer clock_;
  double last_ = 0.0;
  std::uint32_t round_types_ = 0;
};

static_assert(dmis::kWireMessageTypeCount <= 32, "type mask is 32 bits");

/// One engine layer's share of a traced pass, summed over its solves.
struct EngineSplit {
  double send_deliver_s = 0.0;
  double receive_s = 0.0;
  double outside_s = 0.0;  ///< solve time outside any round
  double live_sum = 0.0;
  double live_slots = 0.0;  ///< rounds x n
  std::uint64_t messages = 0;

  void add(const LayerClock& c, double solve_s, double n) {
    send_deliver_s += c.send_deliver_s;
    receive_s += c.receive_s;
    outside_s += solve_s - c.send_deliver_s - c.receive_s;
    live_sum += c.live_sum;
    live_slots += static_cast<double>(c.rounds) * n;
    messages += c.messages;
  }
};

struct TracedPass {
  double total_s = 0.0;
  std::map<Layer, EngineSplit> engines;  ///< CONGEST and beeping engines
  double stage_s[kStageCount] = {};      ///< clique stages
  std::uint64_t gather_rss_bytes = 0;
};

struct SolveRecord {
  double seconds = 0.0;
  double verify_s = 0.0;
  Signature signature;
};

class BatchRun {
 public:
  BatchRun(const RunConfig& config, const BatchWorkload& workload)
      : config_(config), workload_(workload) {}

  Report run();

 private:
  void setup();
  SolveRecord solve(std::size_t index, LayerClock* clock, int lanes,
                    const char* what);
  std::vector<SolveRecord> pass();
  TracedPass traced_pass();
  void report_end_to_end(const std::vector<double>& pass_s,
                         const std::vector<double>& op_ms, double timed_s);
  void report_layers(const std::vector<double>& pass_s,
                     const std::vector<double>& verify_s,
                     const std::map<std::string, std::vector<double>>& algo_s,
                     const std::vector<TracedPass>& traced);

  const RunConfig& config_;
  const BatchWorkload& workload_;
  Report report_;
  Graph graph_;
  std::vector<double> setup_s_, build_s_, load_s_;
  /// Signature of each solve's first run; every later run must match it.
  std::vector<Signature> reference_;
  /// Untraced timed-pass durations of each solve in the list.
  std::vector<std::vector<double>> solve_s_;
};

void BatchRun::setup() {
  const std::string dmg = config_.workdir + "/graph.dmg";
  for (int i = 0; i < kSetupRepeats; ++i) {
    graph_ = Graph();
    std::filesystem::remove(dmg);
    WallTimer total;
    Graph built = workload_.build(config_.seed);
    build_s_.push_back(total.seconds());
    if (workload_.via_dmg) {
      dmis::write_dmg_file(built, dmg);
      built = Graph();
      WallTimer load;
      graph_ = dmis::load_dmg_file(dmg);
      load_s_.push_back(load.seconds());
    } else {
      graph_ = std::move(built);
    }
    setup_s_.push_back(total.seconds());
  }
}

SolveRecord BatchRun::solve(std::size_t index, LayerClock* clock, int lanes,
                            const char* what) {
  const Solve& s = workload_.solves[index];
  const dmis::AlgorithmDescriptor& desc =
      dmis::AlgorithmRegistry::instance().require(s.algorithm);
  const dmis::AlgoOptions options(desc);
  dmis::AlgoRunRequest request;
  request.seed = config_.seed * 1000003ULL + index;
  request.threads = lanes;
  if (clock != nullptr) request.observers.push_back(clock);
  SolveRecord rec;
  ++report_.attempted;
  try {
    WallTimer timer;
    const dmis::AlgoResult result =
        dmis::run_registered_algorithm(desc, graph_, options, request);
    rec.seconds = timer.seconds();
    WallTimer verify;
    const bool valid =
        dmis::algo_output_valid(desc, graph_, result.run.in_mis);
    rec.verify_s = verify.seconds();
    rec.signature = {result.run.rounds, result.run.costs,
                     mis_checksum(result.run.in_mis)};
    if (!valid) {
      report_.fail(std::string(s.algorithm) + ": output is not a valid " +
                   dmis::algo_output_kind_name(desc.output));
    } else if (reference_.size() == index) {
      reference_.push_back(rec.signature);
    } else if (!(reference_[index] == rec.signature)) {
      report_.fail(std::string(s.algorithm) + ": " + what +
                   " run's counters or MIS checksum differ from the first run");
    }
  } catch (const std::exception& e) {
    report_.fail(std::string(s.algorithm) + ": " + e.what());
  }
  return rec;
}

std::vector<SolveRecord> BatchRun::pass() {
  std::vector<SolveRecord> out;
  for (std::size_t i = 0; i < workload_.solves.size(); ++i) {
    out.push_back(solve(i, nullptr, workload_.solves[i].lanes, "untraced"));
  }
  return out;
}

TracedPass BatchRun::traced_pass() {
  TracedPass out;
  const double n = graph_.node_count();
  for (std::size_t i = 0; i < workload_.solves.size(); ++i) {
    const Solve& s = workload_.solves[i];
    LayerClock clock(s.layer);
    const SolveRecord rec = solve(i, &clock, s.lanes, "traced");
    out.total_s += rec.seconds;
    if (s.layer == Layer::kCongest || s.layer == Layer::kBeeping) {
      out.engines[s.layer].add(clock, rec.seconds, n);
    }
    if (s.layer == Layer::kClique) {
      double rounds_s = 0.0;
      for (int k = 0; k < kStageCount; ++k) {
        out.stage_s[k] += clock.stage_s[k];
        rounds_s += clock.stage_s[k];
      }
      out.stage_s[kOther] += rec.seconds - rounds_s;  // after the last round
    }
    out.gather_rss_bytes =
        std::max(out.gather_rss_bytes, clock.gather_rss_bytes);
  }
  return out;
}

Report BatchRun::run() {
  for (const Solve& s : workload_.solves) {
    require_within_nproc(s.lanes, "lanes");
  }
  std::filesystem::create_directories(config_.workdir);
  setup();
  report_.provenance.emplace_back("graph_digest",
                                  dmis::svc::net::graph_digest_hex(graph_));
  report_.provenance.emplace_back("graph_n",
                                  std::to_string(graph_.node_count()));
  report_.provenance.emplace_back("graph_m",
                                  std::to_string(graph_.edge_count()));
  report_.provenance.emplace_back("graph_max_degree",
                                  std::to_string(graph_.max_degree()));
  std::string lanes;
  for (const Solve& s : workload_.solves) {
    lanes += std::string(lanes.empty() ? "" : " ") + s.algorithm + ":" +
             std::to_string(s.lanes);
  }
  report_.provenance.emplace_back("threads", lanes);

  pass();  // warm-up: faults in mmap'd pages, sizes allocator pools
  solve_s_.resize(workload_.solves.size());

  // Timed passes. In the traced run, untraced and traced passes alternate
  // so that order effects fall on both alike.
  std::vector<double> pass_s, verify_s, op_ms;
  std::map<std::string, std::vector<double>> algo_s;
  std::vector<TracedPass> traced;
  double timed_s = 0.0;
  const WallTimer budget;
  while (pass_s.size() < kMinPasses || budget.seconds() < config_.seconds) {
    const std::vector<SolveRecord> recs = pass();
    double total = 0.0;
    double verify = 0.0;
    std::map<std::string, double> per_algo;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      total += recs[i].seconds;
      verify += recs[i].verify_s;
      op_ms.push_back(recs[i].seconds * 1e3);
      per_algo[workload_.solves[i].algorithm] += recs[i].seconds;
      solve_s_[i].push_back(recs[i].seconds);
    }
    for (const auto& [algo, seconds] : per_algo) algo_s[algo].push_back(seconds);
    pass_s.push_back(total);
    verify_s.push_back(verify);
    timed_s += total;
    if (config_.trace) traced.push_back(traced_pass());
  }
  std::cout << "pass_s:";
  for (const double s : pass_s) std::cout << ' ' << s;
  std::cout << '\n';
  if (config_.trace) {
    report_layers(pass_s, verify_s, algo_s, traced);
  } else {
    report_end_to_end(pass_s, op_ms, timed_s);
  }
  return report_;
}

void BatchRun::report_end_to_end(const std::vector<double>& pass_s,
                                 const std::vector<double>& op_ms,
                                 double timed_s) {
  Report& r = report_;
  const std::uint64_t passes = pass_s.size();
  const std::uint64_t ops = op_ms.size();
  r.add("setup_s", median(setup_s_), "s", setup_s_.size());
  r.add("solve_s", median(pass_s), "s", passes);
  r.add("peak_rss_mb",
        static_cast<double>(dmis::bench::peak_rss_bytes()) / 1e6, "MB", 1);
  // The clique's leader election is an all-to-all round of n(n-1)
  // messages that runs only when a residual is left (about 1 seed in 12 at
  // n=2^15) and then outweighs the rest of the run 35 times over. It is
  // reported exactly as wire.leader_elect.* and kept out of sim_mbits, which
  // would otherwise jump by that factor from seed to seed.
  std::uint64_t rounds = 0;
  std::uint64_t bits = 0;
  for (const Signature& s : reference_) {
    rounds += s.rounds;
    for (std::size_t t = 0; t < s.costs.by_type.size(); ++t) {
      if (t == static_cast<std::size_t>(WireMessageType::kLeaderElect)) continue;
      bits += s.costs.by_type[t].bits;
    }
  }
  r.add("sim_rounds", static_cast<double>(rounds), "rounds", passes);
  r.add("sim_mbits", static_cast<double>(bits) / 1e6, "Mbit", passes);
  r.add("req_p50_ms", median(op_ms), "ms", ops);
  r.add("req_p99_ms", quantile(op_ms, 0.99), "ms", ops);
  // Every timed solve repeats one the warm-up pass already ran; the batch
  // path has no cache, so a repeat costs a full solve.
  r.add("hit_p99_ms", quantile(op_ms, 0.99), "ms", ops);
  r.add("req_per_s", static_cast<double>(ops) / timed_s, "req/s", ops);
}

template <typename Fn>
double median_of(const std::vector<TracedPass>& passes, Fn&& field) {
  std::vector<double> v;
  for (const TracedPass& p : passes) v.push_back(field(p));
  return median(v);
}

void BatchRun::report_layers(
    const std::vector<double>& pass_s, const std::vector<double>& verify_s,
    const std::map<std::string, std::vector<double>>& algo_s,
    const std::vector<TracedPass>& traced) {
  Report& r = report_;
  const std::uint64_t k = traced.size();
  r.add("graph.build_s", median(build_s_), "s", build_s_.size());
  r.add("graph.load_s", median(load_s_), "s", load_s_.size());
  r.add("graph.verify_s", median(verify_s), "s", verify_s.size());
  for (const auto& [algo, times] : algo_s) {
    r.add("mis." + algo + ".solve_s", median(times), "s", times.size());
  }

  for (const auto& [layer, split] : traced.front().engines) {
    const std::string p = layer_name(layer);
    const auto field = [&, layer = layer](double (*get)(const EngineSplit&)) {
      return median_of(traced, [&](const TracedPass& t) {
        return get(t.engines.at(layer));
      });
    };
    const double send_deliver_s =
        field([](const EngineSplit& e) { return e.send_deliver_s; });
    const double receive_s =
        field([](const EngineSplit& e) { return e.receive_s; });
    const double msgs = static_cast<double>(split.messages);
    r.add(p + ".send_deliver_s", send_deliver_s, "s", k);
    r.add(p + ".receive_s", receive_s, "s", k);
    r.add(p + ".outside_s",
          field([](const EngineSplit& e) { return e.outside_s; }), "s", k);
    r.add(p + ".msgs", msgs, "count", k);
    r.add(p + ".msgs_per_s", msgs / (send_deliver_s + receive_s), "1/s", k);
    r.add(p + ".live_frac", field([](const EngineSplit& e) {
            return e.live_sum / e.live_slots;
          }),
          "fraction", k);
  }

  // Exact per-type traffic of one pass.
  dmis::CostAccounting pass_costs;
  for (const Signature& s : reference_) pass_costs += s.costs;
  for (std::size_t t = 0; t < dmis::kWireMessageTypeCount; ++t) {
    const dmis::WireTypeTally& tally = pass_costs.by_type[t];
    if (tally.messages == 0) continue;
    const std::string name =
        dmis::wire_message_type_name(static_cast<WireMessageType>(t));
    r.add("wire." + name + ".msgs", static_cast<double>(tally.messages),
          "count", 1);
    r.add("wire." + name + ".bits", static_cast<double>(tally.bits), "bit", 1);
  }

  if (std::any_of(workload_.solves.begin(), workload_.solves.end(),
                  [](const Solve& s) { return s.layer == Layer::kClique; })) {
    static constexpr const char* kStageNames[kStageCount] = {
        "opener_s", "beep_vector_s", "gather_s", "replay_s", "cleanup_s",
        "other_s"};
    for (int s = 0; s < kStageCount; ++s) {
      r.add(std::string("clique.") + kStageNames[s],
            median_of(traced, [s](const TracedPass& t) { return t.stage_s[s]; }),
            "s", k);
    }
    r.add("clique.gather_packets",
          static_cast<double>(
              pass_costs.of(WireMessageType::kGatherEdge).messages +
              pass_costs.of(WireMessageType::kGatherAnnotation).messages),
          "count", 1);
    std::uint64_t rss = 0;
    for (const TracedPass& t : traced) rss = std::max(rss, t.gather_rss_bytes);
    r.add("clique.gather_rss_mb", static_cast<double>(rss) / 1e6, "MB", k);
  }

  // The same solve at one lane against its multi-lane runs above; the
  // counters must match (thread invariance).
  for (std::size_t i = 0; i < workload_.solves.size(); ++i) {
    const Solve& s = workload_.solves[i];
    if (s.lanes <= 1) continue;
    const SolveRecord one = solve(i, nullptr, 1, "1-lane");
    const double many = median(solve_s_[i]);
    r.add(std::string("parallel.speedup_") + layer_name(s.layer),
          one.seconds / many, "x", 1);
    break;
  }

  const double untraced = median(pass_s);
  const double with_trace = median_of(traced, [](const TracedPass& t) {
    return t.total_s;
  });
  r.add("trace.untraced_solve_s", untraced, "s", pass_s.size());
  r.add("trace.traced_solve_s", with_trace, "s", k);
  r.add("trace.overhead_frac", with_trace / untraced - 1.0, "fraction", k);
}

}  // namespace

Report run_batch_workload(const RunConfig& config) {
  for (const BatchWorkload& w : batch_workloads()) {
    if (config.workload == w.name) return BatchRun(config, w).run();
  }
  throw std::invalid_argument("unknown batch workload: " + config.workload);
}

}  // namespace perfbench
