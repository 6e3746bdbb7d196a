// serve-mix client: a closed loop of 4 connections against the router of a
// running deployment (perfbench/run.py starts it), plus, in the traced run,
// the probes that split a request's time across svc and svc/net.
//
// The request stream is a pure function of the seed, and every pass has
// the same make-up:
//   * 2 fresh `clique` jobs on the heavy graph (~0.5 s each, 2%), at evenly
//     spaced places in the pass, from a sequence that is the same in every
//     run (see next_heavy_seed_);
//   * 50 fresh light jobs, 5 per (light algorithm, light graph) pair;
//   * 1 duplicate of an earlier clique job and 47 of earlier light jobs,
//     all from earlier passes, so they are answered from cache.
// The seed draws the light jobs' seeds, the order of the light jobs and
// duplicates, and which earlier requests are repeated. With the clique jobs
// at random places instead, how they fell against each other set the
// queueing regime, and req_p50_ms spread 38% across runs.
// An untimed warm-up pass of 102 fresh requests fills the duplicate pool.
// Passes run back to back; each ends when its last response is in.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "mis/registry.h"
#include "svc/frontend.h"
#include "svc/job.h"
#include "svc/net/graph_store.h"
#include "svc/net/router.h"
#include "svc/net/tcp.h"
#include "svc/service.h"
#include "svc/store.h"

namespace perfbench {
namespace {

constexpr int kConnections = 4;
constexpr std::size_t kHeavyFresh = 2;
constexpr std::size_t kLightFreshPerPair = 5;
constexpr std::size_t kHeavyDuplicates = 1;
constexpr std::size_t kLightDuplicates = 47;
/// sim_rounds and sim_mbits average the light answers of this many passes.
constexpr std::size_t kSimPasses = 5;
/// At least this many timed passes: >= 1000 requests, so that >= 10 lie
/// beyond the p99.
constexpr std::size_t kMinPasses = 10;
constexpr std::size_t kRouterProbes = 200;
const char* const kLightAlgorithms[] = {"congest", "luby", "ghaffari",
                                        "beeping", "sparsified"};
const char* const kHeavyAlgorithm = "clique";

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Deployment {
  std::string router;
  std::vector<std::string> workers;
  std::string graphs_dir;
  std::vector<std::string> light;
  std::string heavy;
};

Deployment parse_deployment(int argc, char** argv) {
  Deployment d;
  for (int i = 2; i + 1 < argc; ++i) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--router") d.router = value;
    if (flag == "--worker") d.workers.push_back(value);
    if (flag == "--graphs-dir") d.graphs_dir = value;
    if (flag == "--light") d.light.push_back(value);
    if (flag == "--heavy") d.heavy = value;
  }
  if (d.router.empty() || d.workers.empty() || d.graphs_dir.empty() ||
      d.light.empty() || d.heavy.empty()) {
    throw std::invalid_argument(
        "serve-client needs --router, --worker, --graphs-dir, --light and "
        "--heavy");
  }
  return d;
}

struct Request {
  std::string line;  ///< without the trailing newline
  std::string algorithm;
  std::string digest;
  std::uint64_t job_seed = 0;
  /// Index of the fresh request this one repeats; its own index when fresh.
  std::size_t original = 0;
  bool fresh = false;
  bool heavy = false;
};

/// Seed-determined request stream, generated one pass at a time.
class Stream {
 public:
  Stream(std::uint64_t seed, const Deployment& d)
      : rng_(seed), next_job_seed_(seed * 1000000ULL), deployment_(d) {}

  /// Appends one pass to `all` and returns the indices of its requests in
  /// send order. The warm-up pass holds twice the light fresh jobs and no
  /// duplicates.
  std::vector<std::size_t> next_pass(std::vector<Request>& all, bool warmup) {
    // Duplicates draw only from passes already answered.
    const std::vector<std::size_t> light_pool = light_;
    const std::vector<std::size_t> heavy_pool = heavy_;
    std::vector<std::size_t> order;
    const auto fresh = [&](const char* algorithm, const std::string& digest,
                           bool heavy) {
      Request r;
      r.algorithm = algorithm;
      r.digest = digest;
      r.job_seed = heavy ? next_heavy_seed_++ : next_job_seed_++;
      r.original = all.size();
      r.fresh = true;
      r.heavy = heavy;
      r.line = make_line(all.size(), r.algorithm, r.digest, r.job_seed);
      (heavy ? heavy_ : light_).push_back(all.size());
      order.push_back(all.size());
      all.push_back(std::move(r));
    };
    const auto duplicate = [&](const std::vector<std::size_t>& pool) {
      Request r = all[pool[splitmix64(rng_) % pool.size()]];
      r.fresh = false;
      r.line = make_line(all.size(), r.algorithm, r.digest, r.job_seed);
      order.push_back(all.size());
      all.push_back(std::move(r));
    };
    for (std::size_t i = 0; i < kHeavyFresh; ++i) {
      fresh(kHeavyAlgorithm, deployment_.heavy, true);
    }
    const std::size_t per_pair = warmup ? 2 * kLightFreshPerPair
                                        : kLightFreshPerPair;
    for (const char* algorithm : kLightAlgorithms) {
      for (const std::string& digest : deployment_.light) {
        for (std::size_t i = 0; i < per_pair; ++i) {
          fresh(algorithm, digest, false);
        }
      }
    }
    if (!warmup) {
      for (std::size_t i = 0; i < kHeavyDuplicates; ++i) duplicate(heavy_pool);
      for (std::size_t i = 0; i < kLightDuplicates; ++i) duplicate(light_pool);
    }
    // Shuffle everything but the clique jobs, then space those evenly.
    std::vector<std::size_t> rest(order.begin() + kHeavyFresh, order.end());
    for (std::size_t i = rest.size(); i > 1; --i) {
      std::swap(rest[i - 1], rest[splitmix64(rng_) % i]);
    }
    std::vector<std::size_t> spaced;
    const std::size_t gap = order.size() / kHeavyFresh;
    for (std::size_t i = 0, r = 0; i < order.size(); ++i) {
      spaced.push_back(i % gap == gap / 2 && i / gap < kHeavyFresh
                           ? order[i / gap]
                           : rest[r++]);
    }
    return spaced;
  }

 private:
  static std::string make_line(std::size_t id, const std::string& algorithm,
                               const std::string& digest,
                               std::uint64_t seed) {
    return "{\"id\":\"" + std::to_string(id) + "\",\"algorithm\":\"" +
           algorithm + "\",\"seed\":" + std::to_string(seed) +
           ",\"graph_digest\":\"" + digest + "\"}";
  }

  std::uint64_t rng_;
  std::uint64_t next_job_seed_;
  /// The clique jobs are the same sequence in every run: how much memory a
  /// clique job takes varies with its seed, some take twice the usual, and
  /// the servers' high-water mark is set by the largest one a worker ran.
  /// With seed-drawn clique jobs, peak_rss_mb jumped between ~95 and
  /// ~135 MB from one workload seed to the next (5 runs in 32).
  std::uint64_t next_heavy_seed_ = 1;
  const Deployment& deployment_;
  std::vector<std::size_t> light_;
  std::vector<std::size_t> heavy_;
};

/// One blocking client connection speaking line-delimited JSON.
class Connection {
 public:
  explicit Connection(const std::string& addr) {
    std::string error;
    fd_ = dmis::svc::net::connect_tcp(dmis::svc::net::parse_endpoint(addr),
                                      &error);
    if (fd_ < 0) throw std::runtime_error("connect " + addr + ": " + error);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request line and returns the response line.
  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string reply = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed mid-response");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The raw bytes of the response's "result" object: the canonical result,
/// embedded verbatim by the front end. Empty when absent.
std::string result_bytes(const std::string& response) {
  const std::string tag = "\"result\":";
  const std::size_t start = response.find(tag);
  if (start == std::string::npos) return {};
  const std::size_t open = start + tag.size();
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < response.size(); ++i) {
    const char c = response[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return response.substr(open, i + 1 - open);
    }
  }
  return {};
}

struct Answer {
  std::string response;
  double latency_s = 0.0;
  bool transport_error = false;
};

/// Sends `order` over the connections, closed loop: each connection sends
/// its next request only after its previous response arrived.
double run_pass(std::vector<std::unique_ptr<Connection>>& conns,
                const std::vector<Request>& all,
                const std::vector<std::size_t>& order,
                std::vector<Answer>& answers) {
  std::atomic<std::size_t> next{0};
  const WallTimer pass;
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    threads.emplace_back([&, c = conn.get()] {
      for (std::size_t k = next++; k < order.size(); k = next++) {
        Answer& a = answers[order[k]];
        const WallTimer t;
        try {
          a.response = c->call(all[order[k]].line);
        } catch (const std::exception& e) {
          a.response = e.what();
          a.transport_error = true;
        }
        a.latency_s = t.seconds();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return pass.seconds();
}

std::vector<char> mask_from_hex(const std::string& hex, std::size_t n) {
  std::vector<char> mask(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = hex.at(i / 4);
    const int nibble = c <= '9' ? c - '0' : c - 'a' + 10;
    mask[i] = static_cast<char>((nibble >> (i % 4)) & 1);
  }
  return mask;
}

class ServeRun {
 public:
  ServeRun(const RunConfig& config, Deployment deployment)
      : config_(config), d_(std::move(deployment)), stream_(config.seed, d_) {}

  Report run();

 private:
  void check(std::size_t index);
  const dmis::Graph& graph(const std::string& digest);
  void trace_layers(const std::vector<std::size_t>& timed);
  void replay(const std::vector<std::size_t>& indices);
  void probe_router();
  void worker_stats();

  const RunConfig& config_;
  Deployment d_;
  Stream stream_;
  Report report_;
  std::vector<Request> all_;
  std::vector<Answer> answers_;
  std::vector<std::string> canonical_;  ///< per fresh request: result bytes
  std::map<std::string, dmis::Graph> graphs_;
};

const dmis::Graph& ServeRun::graph(const std::string& digest) {
  auto it = graphs_.find(digest);
  if (it == graphs_.end()) {
    it = graphs_
             .emplace(digest,
                      dmis::svc::net::resolve_graph(d_.graphs_dir, digest))
             .first;
  }
  return it->second;
}

/// Correctness gate for one answered request: a response with status ok, a
/// valid MIS for fresh jobs, and for duplicates the very bytes the original
/// request got.
void ServeRun::check(std::size_t index) {
  ++report_.attempted;
  const Request& r = all_[index];
  const Answer& a = answers_[index];
  const std::string where = "request " + std::to_string(index) + " (" +
                            r.algorithm + "): ";
  if (a.transport_error) return report_.fail(where + a.response);
  const std::string bytes = result_bytes(a.response);
  try {
    const dmis::json::Value result = dmis::json::parse(bytes);
    const dmis::json::Value* status = result.find("status");
    if (status == nullptr || status->as_string() != "ok") {
      return report_.fail(where + "status not ok: " + a.response);
    }
    if (!r.fresh) {
      if (bytes != canonical_[r.original]) {
        report_.fail(where + "duplicate answered different bytes");
      }
      return;
    }
    const dmis::Graph& g = graph(r.digest);
    const dmis::AlgorithmDescriptor& desc =
        dmis::AlgorithmRegistry::instance().require(r.algorithm);
    const dmis::json::Value* mis = result.find("mis");
    if (mis == nullptr ||
        !dmis::algo_output_valid(
            desc, g, mask_from_hex(mis->as_string(), g.node_count()))) {
      return report_.fail(where + "returned MIS is not valid");
    }
    canonical_[index] = bytes;
  } catch (const std::exception& e) {
    report_.fail(where + "unreadable response: " + e.what());
  }
}

Report ServeRun::run() {
  require_within_nproc(kConnections, "connections");
  report_.provenance.emplace_back(
      "threads", std::to_string(kConnections) + " connections, " +
                     std::to_string(d_.workers.size()) +
                     " workers x 1 thread");
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<Connection>(d_.router));
  }
  const auto run_and_check = [&](bool warmup) {
    const std::vector<std::size_t> order = stream_.next_pass(all_, warmup);
    answers_.resize(all_.size());
    canonical_.resize(all_.size());
    const double seconds = run_pass(conns, all_, order, answers_);
    for (const std::size_t i : order) check(i);
    return std::make_pair(order, seconds);
  };
  run_and_check(true);

  std::vector<double> pass_s;
  std::vector<std::size_t> timed;
  std::vector<std::size_t> first_pass;
  std::vector<std::size_t> sim_passes;
  const WallTimer budget;
  while (pass_s.size() < kMinPasses || budget.seconds() < config_.seconds) {
    const auto [order, seconds] = run_and_check(false);
    if (first_pass.empty()) first_pass = order;
    if (pass_s.size() < kSimPasses) {
      sim_passes.insert(sim_passes.end(), order.begin(), order.end());
    }
    pass_s.push_back(seconds);
    timed.insert(timed.end(), order.begin(), order.end());
  }

  std::vector<double> all_ms, hit_ms;
  for (const std::size_t i : timed) {
    const double ms = answers_[i].latency_s * 1e3;
    all_ms.push_back(ms);
    if (answers_[i].response.find("\"cached\":true") != std::string::npos) {
      hit_ms.push_back(ms);
    }
  }
  if (config_.trace) {
    trace_layers(timed);
    worker_stats();  // before the probes, whose hits are not part of the mix
    replay(first_pass);
    probe_router();
    return report_;
  }
  // Simulated cost of the light answers, per pass. The clique jobs' cost
  // is clique-gather's metric; here their leader election (an n(n-1)
  // message round on about 1 job in 13) would swamp the sum.
  double rounds = 0.0;
  double bits = 0.0;
  for (const std::size_t i : sim_passes) {
    const Request& r = all_[i];
    if (r.heavy || canonical_[r.original].empty()) continue;  // failed
    const dmis::json::Value result =
        dmis::json::parse(canonical_[r.original]);
    rounds += static_cast<double>(result.find("rounds")->as_u64());
    bits += static_cast<double>(result.find("bits")->as_u64() +
                                result.find("beeps")->as_u64());
  }
  double total_s = 0.0;
  for (const double s : pass_s) total_s += s;
  Report& rep = report_;
  rep.add("solve_s", median(pass_s), "s", pass_s.size());
  rep.add("sim_rounds", rounds / kSimPasses, "rounds", kSimPasses);
  rep.add("sim_mbits", bits / 1e6 / kSimPasses, "Mbit", kSimPasses);
  rep.add("req_p50_ms", median(all_ms), "ms", all_ms.size());
  rep.add("req_p99_ms", quantile(all_ms, 0.99), "ms", all_ms.size());
  rep.add("hit_p99_ms", quantile(hit_ms, 0.99), "ms", hit_ms.size());
  rep.add("req_per_s", static_cast<double>(timed.size()) / total_s, "req/s",
          timed.size());
  return rep;
}

/// Splits client latency into the worker's own service time (its
/// "elapsed_us") and everything else: framing, poll-loop wait, router.
void ServeRun::trace_layers(const std::vector<std::size_t>& timed) {
  std::vector<double> service_ms, wait_ms;
  for (const std::size_t i : timed) {
    const Answer& a = answers_[i];
    const std::size_t at = a.response.rfind("\"elapsed_us\":");
    if (at == std::string::npos) continue;
    const double elapsed_ms =
        std::strtod(a.response.c_str() + at + 13, nullptr) / 1e3;
    service_ms.push_back(elapsed_ms);
    wait_ms.push_back(a.latency_s * 1e3 - elapsed_ms);
  }
  report_.add("net.service_p99_ms", quantile(service_ms, 0.99), "ms",
              service_ms.size());
  report_.add("net.frontend_wait_p99_ms", quantile(wait_ms, 0.99), "ms",
              wait_ms.size());

  std::vector<double> resolve_us;
  for (int rep = 0; rep < 20; ++rep) {
    for (const std::string& digest : d_.light) {
      const WallTimer t;
      const dmis::Graph g = dmis::svc::net::resolve_graph(d_.graphs_dir, digest);
      resolve_us.push_back(t.seconds() * 1e6);
    }
  }
  report_.add("net.graph_resolve_us", median(resolve_us), "us",
              resolve_us.size());
}

/// In-process, single-thread replay of one pass through the service API:
/// parse_request, job_key, execute_job and ResultStore::put for fresh
/// requests, ExecutionService::run (a cache hit) for duplicates. The
/// replayed canonical bytes must equal what the deployment answered.
void ServeRun::replay(const std::vector<std::size_t>& indices) {
  namespace svc = dmis::svc;
  const std::string store_dir = config_.workdir + "/replay-store";
  std::filesystem::remove_all(store_dir);
  svc::ServiceOptions options;
  options.scheduler.workers = 1;
  options.scheduler.total_threads = 1;
  svc::ExecutionService service(options);
  svc::StoreOptions store_options;
  store_options.dir = store_dir;
  svc::ResultStore store(store_options);
  // Originals of the pass's duplicates ran in earlier passes: seed the
  // cache with their served bytes so that duplicates replay as hits.
  for (const std::size_t i : indices) {
    const Request& r = all_[i];
    if (r.fresh) continue;
    const svc::Request req =
        svc::parse_request(all_[r.original].line, 0, false, d_.graphs_dir);
    service.cache().put(svc::job_key(req.spec), canonical_[r.original]);
  }
  std::vector<double> parse_us, key_us, hit_us, exec_ms, put_us;
  std::uint64_t seq = 0;
  for (const std::size_t i : indices) {
    const Request& r = all_[i];
    WallTimer t;
    svc::Request req = svc::parse_request(r.line, ++seq, false, d_.graphs_dir);
    parse_us.push_back(t.seconds() * 1e6);
    t = WallTimer();
    const svc::JobKey key = svc::job_key(req.spec);
    key_us.push_back(t.seconds() * 1e6);
    std::string bytes;
    if (r.fresh) {
      t = WallTimer();
      const svc::JobResult result = svc::execute_job(req.spec, 1);
      exec_ms.push_back(t.seconds() * 1e3);
      t = WallTimer();
      store.put(key, result.canonical);
      put_us.push_back(t.seconds() * 1e6);
      service.cache().put(key, result.canonical);
      bytes = result.canonical;
    } else {
      t = WallTimer();
      const svc::Completion c = service.run(std::move(req.spec));
      hit_us.push_back(t.seconds() * 1e6);
      if (!c.cache_hit) report_.fail("replay: duplicate missed the cache");
      bytes = c.canonical;
    }
    if (bytes != canonical_[r.original]) {
      report_.fail("replay: request " + std::to_string(i) +
                   " differs from the served answer");
    }
  }
  store.seal();
  report_.add("svc.parse_us", median(parse_us), "us", parse_us.size());
  report_.add("svc.key_us", median(key_us), "us", key_us.size());
  report_.add("svc.hit_us", median(hit_us), "us", hit_us.size());
  report_.add("svc.exec_ms", median(exec_ms), "ms", exec_ms.size());
  report_.add("svc.store_put_us", median(put_us), "us", put_us.size());
}

/// Cache-hit probes sent through the router and straight to the owning
/// worker (HashRing::pick of the job key, the router's own rule), in
/// alternating order; both paths must answer the same bytes.
void ServeRun::probe_router() {
  namespace svc = dmis::svc;
  Connection via_router(d_.router);
  std::vector<std::unique_ptr<Connection>> direct;
  for (const std::string& w : d_.workers) {
    direct.push_back(std::make_unique<Connection>(w));
  }
  const svc::net::HashRing ring(d_.workers.size());
  std::vector<double> router_us, direct_us;
  std::size_t probes = 0;
  for (std::size_t i = 0; i < all_.size() && probes < kRouterProbes; ++i) {
    const Request& r = all_[i];
    if (!r.fresh || r.heavy) continue;
    ++probes;
    ++report_.attempted;
    const svc::Request req =
        svc::parse_request(r.line, 0, false, d_.graphs_dir);
    Connection& owner = *direct[ring.pick(svc::job_key(req.spec))];
    std::string a, b;
    for (int leg = 0; leg < 2; ++leg) {
      const bool router_leg = (leg == 0) == (probes % 2 == 0);
      const WallTimer t;
      (router_leg ? a : b) = (router_leg ? via_router : owner).call(r.line);
      (router_leg ? router_us : direct_us).push_back(t.seconds() * 1e6);
    }
    if (result_bytes(a) != canonical_[i] || result_bytes(b) != canonical_[i]) {
      report_.fail("router and direct answers differ for request " +
                   std::to_string(i));
    }
  }
  report_.add("net.router_hop_us", median(router_us) - median(direct_us), "us",
              router_us.size());
}

/// Cache hit ratio and deepest queue, from each worker's stats line.
void ServeRun::worker_stats() {
  double hits = 0.0;
  double lookups = 0.0;
  double depth = 0.0;
  for (const std::string& w : d_.workers) {
    Connection c(w);
    const dmis::json::Value v =
        dmis::json::parse(c.call("{\"cmd\":\"stats\"}"));
    const dmis::json::Value& stats = *v.find("stats");
    const dmis::json::Value& cache = *stats.find("cache");
    hits += static_cast<double>(cache.find("hits")->as_u64());
    lookups += static_cast<double>(cache.find("hits")->as_u64() +
                                   cache.find("misses")->as_u64());
    depth = std::max(depth, static_cast<double>(stats.find("scheduler")
                                                    ->find("max_queue_depth")
                                                    ->as_u64()));
  }
  report_.add("svc.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "fraction",
              d_.workers.size());
  report_.add("svc.queue_depth_max", depth, "count", d_.workers.size());
}

}  // namespace

Report run_serve_client(const RunConfig& config, int argc, char** argv) {
  return ServeRun(config, parse_deployment(argc, argv)).run();
}

}  // namespace perfbench
