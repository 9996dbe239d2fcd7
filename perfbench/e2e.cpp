// End-to-end benchmark of the HARNESS II binding stack and the sharded
// DVM's global state, with a per-layer cost ledger measured from outside.
//
// Every layer is timed through public seams only — nothing inside the
// library is instrumented:
//
//   bench loop ─ BatchChannel ─ [SpanChannel "resilience"] ─ ResilientChannel
//     ─ [SpanChannel "codec.client"] ─ XDR/SOAP channel ─ [SpanTransport]
//     ─ SockNet ═ socket ═ ConnMux ─ [wrapped Handler "codec.server"]
//     ─ XDR frame server / SoapHttpServer (+ DedupCache)
//     ─ [SpanDispatcher "dispatch"] ─ the benchmark's own "scale" service
//
// A span's self time is its duration minus its children's. The server
// handler span is linked to the client's open Transport::call span for
// the same port: each client thread owns one listener port and has one
// call outstanding, so the port identifies the calling op exactly. The
// DVM workload wraps Dvm::set/get in root spans and reads message counts
// from SimNetwork's NetStats around each op.
//
// Per-layer times are self times, as means per logical op (per sub-call on
// xdr-batch), so they add up to the traced end-to-end time per op:
//   batch.self_us        batch round minus the resilience span
//   resilience.self_us   ResilientChannel minus the binding channel
//   codec.client_us      binding channel minus Transport::call
//   transport.wire_us    Transport::call minus the server handler: syscalls,
//                        ConnMux, reactor queue wait and wake (the queue
//                        wait cannot be told apart from socket time here)
//   codec.server_us      server handler minus dispatch
//   dispatch.handler_us  the service body
// A traced run spends 40% of --seconds untraced (the base of
// trace.overhead_frac), 40% traced (the ledger) and 20% on the
// planted-delay self-check.
//
// Usage: h2_e2e --workload NAME --seed N --seconds S --trace 0|1
//               [--spans FILE]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: with --trace 0 the end-to-end metrics, with --trace 1 the
// per-layer ledger. Lines before it start with '#' and carry the
// environment stamp and every metric by name and unit.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "resilience/breaker.hpp"
#include "resilience/dedup.hpp"
#include "resilience/resilient_channel.hpp"
#include "transport/batch.hpp"
#include "transport/rpc.hpp"
#include "transport/socknet.hpp"

namespace {

using namespace h2;

// ---- fixed shape of the benchmark -------------------------------------------------

constexpr int kClientThreads = 2;     // + 2 reactor threads = 4 cores
constexpr std::size_t kReactors = 2;
constexpr std::size_t kBatch = 64;    // xdr-batch sub-calls per round
// setup_s is the median of this many world builds. RPC worlds build in
// well under a millisecond and the first few builds of a process run
// slow, so they repeat often enough for the median to sit past the ramp.
constexpr int kRpcSetupRepeats = 31;
constexpr int kDvmSetupRepeats = 9;
constexpr int kWindows = 10;          // ops_per_s is the median window rate
constexpr std::size_t kRetainSpans = 20000;  // per thread, written to --spans
/// The traced run fails if the layer self times miss the traced
/// end-to-end time per op by more than this share of it.
constexpr double kLedgerBound = 0.10;
/// Planted-delay self-check: the dispatch layer must gain the planted
/// time within this share of it, and no other layer may move by more.
constexpr double kPlantedTolerance = 0.2;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark's own input generator (splitmix64), so inputs depend on
/// --seed alone and never on the library's PRNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }  // [0, 1)
  std::size_t below(std::size_t n) { return std::size_t(next() % n); }

 private:
  std::uint64_t state_;
};

// ---- spans and the per-layer ledger ----------------------------------------------

enum Layer : std::uint8_t {
  kBatchLayer,
  kResilience,
  kCodecClient,
  kTransport,
  kCodecServer,
  kDispatch,
  kDvmSet,
  kDvmGet,
  kLayerCount
};
constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "batch", "resilience", "codec.client", "transport",
    "codec.server", "dispatch", "dvm.set", "dvm.get"};

struct Span {
  std::uint64_t op = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  ///< index within the op's spans, -1 = root
  Layer layer = kBatchLayer;
};

using SelfTimes = std::array<std::int64_t, kLayerCount>;  ///< ns per layer

/// Per-layer self time summed over ops, plus the number of logical ops
/// (sub-calls for a batch round) those ops stand for.
struct Accum {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> roots{};  ///< root spans per layer
  std::uint64_t units = 0;

  void add(const Accum& o) {
    for (int l = 0; l < kLayerCount; ++l) {
      self_ns[l] += o.self_ns[l];
      roots[l] += o.roots[l];
    }
    units += o.units;
  }
  double us_per_unit(Layer l) const {
    return units == 0 ? 0.0 : double(self_ns[l]) / 1e3 / double(units);
  }
  double us_per_root(Layer l) const {
    return roots[l] == 0 ? 0.0 : double(self_ns[l]) / 1e3 / double(roots[l]);
  }
};

/// One per client thread. Client-side spans nest on a stack; server-side
/// spans are appended by the reactor thread while the client is blocked
/// in Transport::call, under that port's slot mutex.
class Ledger {
 public:
  void begin_op(bool planted) {
    spans_.clear();
    stack_.clear();
    planted_ = planted;
    ++op_;
  }

  int open(Layer layer) {
    int parent = stack_.empty() ? -1 : stack_.back();
    int idx = open_child(layer, parent);
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    close_child(idx);
    stack_.pop_back();
  }
  int open_child(Layer layer, int parent) {
    spans_.push_back(Span{op_, now_ns(), 0, parent, layer});
    return int(spans_.size()) - 1;
  }
  void close_child(int idx) { spans_[std::size_t(idx)].end = now_ns(); }

  /// Derives self times from the op's spans, books them to `into` and
  /// returns them.
  SelfTimes end_op(std::uint64_t units, Accum& into) {
    SelfTimes self{};
    for (const Span& s : spans_) {
      std::int64_t dur = s.end - s.start;
      self[s.layer] += dur;
      if (s.parent >= 0) {
        self[spans_[std::size_t(s.parent)].layer] -= dur;
      } else {
        ++into.roots[s.layer];
      }
    }
    for (int l = 0; l < kLayerCount; ++l) into.self_ns[l] += self[l];
    into.units += units;
    if (retained_.size() + spans_.size() <= kRetainSpans) {
      retained_.insert(retained_.end(), spans_.begin(), spans_.end());
    }
    return self;
  }

  bool planted() const { return planted_; }
  const std::vector<Span>& retained() const { return retained_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t op_ = 0;
  bool planted_ = false;
  std::vector<Span> retained_;
};

std::atomic<bool> g_tracing{false};
/// Busy-wait the "scale" service adds to ops marked planted (0 = off).
std::atomic<std::int64_t> g_planted_ns{0};

thread_local Ledger* tl_ledger = nullptr;  // client thread's ledger
struct ServerContext {
  Ledger* ledger = nullptr;
  int parent = -1;
};
thread_local ServerContext tl_server;  // set while a traced handler runs

// ---- the decorators ----------------------------------------------------------------

/// net::Channel decorator: one span per invoke/invoke_batch. Placed above
/// the binding channel ("codec.client") and above ResilientChannel
/// ("resilience"), where it also tallies the resilient attempts.
class SpanChannel final : public net::Channel {
 public:
  SpanChannel(Layer layer, std::unique_ptr<net::Channel> inner,
              const resil::ResilientChannel* resilient = nullptr)
      : layer_(layer), inner_(std::move(inner)), resilient_(resilient) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    const int idx = begin();
    auto result = inner_->invoke(operation, params);
    end(idx);
    return result;
  }
  Status invoke_batch(std::span<const net::BatchItem> calls,
                      std::vector<Result<Value>>& results) override {
    const int idx = begin();
    auto status = inner_->invoke_batch(calls, results);
    end(idx);
    return status;
  }
  const char* binding_name() const override { return inner_->binding_name(); }
  net::CallStats last_stats() const override { return inner_->last_stats(); }
  void set_call_id(std::string call_id) override {
    inner_->set_call_id(std::move(call_id));
  }
  const net::Endpoint* remote() const override { return inner_->remote(); }

  std::uint64_t invocations() const { return invocations_; }
  std::uint64_t attempts() const { return attempts_; }

 private:
  int begin() {
    return g_tracing.load(std::memory_order_relaxed) && tl_ledger != nullptr
               ? tl_ledger->open(layer_)
               : -1;
  }
  void end(int idx) {
    if (idx >= 0) tl_ledger->close(idx);
    ++invocations_;
    if (resilient_ != nullptr) attempts_ += std::uint64_t(resilient_->last_attempts());
  }

  Layer layer_;
  std::unique_ptr<net::Channel> inner_;
  const resil::ResilientChannel* resilient_;
  std::uint64_t invocations_ = 0;
  std::uint64_t attempts_ = 0;
};

/// net::Dispatcher decorator: one "dispatch" span per service call,
/// parented to the handler span running on this reactor thread.
class SpanDispatcher final : public net::Dispatcher {
 public:
  explicit SpanDispatcher(std::shared_ptr<net::Dispatcher> inner)
      : inner_(std::move(inner)) {}

  Result<Value> dispatch(std::string_view operation,
                         std::span<const Value> params) override {
    Ledger* ledger = tl_server.ledger;
    if (ledger == nullptr) return inner_->dispatch(operation, params);
    const int idx = ledger->open_child(kDispatch, tl_server.parent);
    auto result = inner_->dispatch(operation, params);
    ledger->close_child(idx);
    return result;
  }

 private:
  std::shared_ptr<net::Dispatcher> inner_;
};

/// net::Transport decorator over SockNet. call() is the "transport" span;
/// listen() wraps the server Handler in a "codec.server" span linked to
/// the client span open on the same port.
class SpanTransport final : public net::Transport {
 public:
  explicit SpanTransport(net::SockNet& inner) : Transport(&wall_), inner_(inner) {}

  Result<net::HostId> resolve(std::string_view name) const override {
    return inner_.resolve(name);
  }
  const std::string& host_name(net::HostId id) const override {
    return inner_.host_name(id);
  }
  const char* transport_name() const override { return inner_.transport_name(); }

  /// Must run before any traffic: the slot map is read unlocked afterwards.
  Status listen(net::HostId host, std::uint16_t port, net::Handler handler) override {
    PortSlot* slot = slots_.emplace(port, std::make_unique<PortSlot>()).first->second.get();
    return inner_.listen(
        host, port,
        [slot, handler = std::move(handler)](
            std::span<const std::uint8_t> request) -> Result<ByteBuffer> {
          if (!g_tracing.load(std::memory_order_relaxed)) return handler(request);
          std::lock_guard lock(slot->mu);
          if (slot->ledger == nullptr) return handler(request);
          const int idx = slot->ledger->open_child(kCodecServer, slot->parent);
          tl_server = ServerContext{slot->ledger, idx};
          auto reply = handler(request);
          tl_server = ServerContext{};
          slot->ledger->close_child(idx);
          return reply;
        });
  }
  Status close(net::HostId host, std::uint16_t port) override {
    return inner_.close(host, port);
  }
  bool is_listening(net::HostId host, std::uint16_t port) const override {
    return inner_.is_listening(host, port);
  }

  Result<ByteBuffer> call(net::HostId from, net::HostId to, std::uint16_t port,
                          std::span<const std::uint8_t> request) override {
    auto it = slots_.find(port);
    if (!g_tracing.load(std::memory_order_relaxed) || tl_ledger == nullptr ||
        it == slots_.end()) {
      return inner_.call(from, to, port, request);
    }
    PortSlot& slot = *it->second;
    const int idx = tl_ledger->open(kTransport);
    {
      std::lock_guard lock(slot.mu);
      slot.ledger = tl_ledger;
      slot.parent = idx;
    }
    auto reply = inner_.call(from, to, port, request);
    {
      std::lock_guard lock(slot.mu);
      slot.ledger = nullptr;
    }
    tl_ledger->close(idx);
    return reply;
  }

  void sleep_for(Nanos duration) override { inner_.sleep_for(duration); }

 private:
  struct PortSlot {
    std::mutex mu;
    Ledger* ledger = nullptr;  ///< client op with a call open on this port
    int parent = -1;           ///< its transport span
  };

  WallClock wall_;
  net::SockNet& inner_;
  std::map<std::uint16_t, std::unique_ptr<PortSlot>> slots_;
};

// ---- the benchmark's service ---------------------------------------------------------

/// "scale": returns its double array times 2. Ops marked planted spin for
/// g_planted_ns first — the self-check's known cost inside the handler.
std::shared_ptr<net::Dispatcher> make_scale_service() {
  auto mux = std::make_shared<net::DispatcherMux>();
  mux->add("scale", [](std::span<const Value> params) -> Result<Value> {
    if (tl_server.ledger != nullptr && tl_server.ledger->planted()) {
      const std::int64_t until = now_ns() + g_planted_ns.load(std::memory_order_relaxed);
      while (now_ns() < until) {
      }
    }
    if (params.empty()) return err::invalid_argument("scale: no array");
    std::span<const double> in = params[0].doubles_view();
    std::vector<double> out(in.begin(), in.end());
    for (double& v : out) v *= 2.0;
    return Value::of_doubles(std::move(out));
  });
  return mux;
}

bool is_scaled(const Value& out, const std::vector<double>& in) {
  std::span<const double> got = out.doubles_view();
  if (got.size() != in.size()) return false;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (got[i] != in[i] * 2.0) return false;
  }
  return true;
}

// ---- workloads -----------------------------------------------------------------------
//
// The four workloads cover the {TCP} × {xdr, soap} × {single, batch=64}
// cells of the binding matrix: tcp/xdr/single (xdr-small), tcp/soap/single
// (soap-bulk), tcp/xdr/batch=64 (xdr-batch), plus the DVM state path.
// The UDS cells are not run: SockNet places Unix-domain socket files
// under /tmp, outside the benchmark's checkout.

enum class Workload { kXdrSmall, kSoapBulk, kXdrBatch, kDvmState };

struct WorkloadInfo {
  const char* name;
  Workload kind;
  const char* link;
};

constexpr std::array<WorkloadInfo, 4> kWorkloads = {{
    // Resilient XDR singles of 8 doubles over loopback TCP. Loads the
    // fixed per-call path — socket syscalls, ConnMux, framing, reactor
    // wake — where codec work barely shows. Bypasses BatchChannel.
    {"xdr-small", Workload::kXdrSmall, "loopback TCP (not a real network link)"},
    // Resilient SOAP over loopback TCP, arrays of 64..16384 doubles drawn
    // log-uniform: the paper's SOAP-on-numeric-arrays case. Loads the
    // client and server XML codecs; the wire is a small share. Bypasses
    // XDR and BatchChannel. The counterweight to xdr-small.
    {"soap-bulk", Workload::kSoapBulk, "loopback TCP (not a real network link)"},
    // BatchChannel(max_batch=64) over resilient XDR over loopback TCP.
    // The wire is amortised over 64 sub-calls, so it loads batch
    // assembly, the H2RB split, dedup and per-sub-call marshal; a
    // transport change should barely move it, a marshal or dedup change
    // should.
    {"xdr-batch", Workload::kXdrBatch, "loopback TCP (not a real network link)"},
    // Sharded Dvm (16 nodes, R=3, 64 shards) over the in-process
    // SimNetwork, 4096 preloaded keys, a seeded 80% get / 20% set mix of
    // 64-byte values from random origins. The only workload that loads
    // the dvm, container and kernel code; it bypasses sockets and the
    // resilience and batching layers. Replicated writes run beside
    // owner-walking reads, so a change that helps one and costs the other
    // shows.
    {"dvm-state", Workload::kDvmState, "in-process SimNetwork (no sockets)"},
}};

struct Inputs {
  std::vector<std::vector<double>> arrays;
  std::size_t payload_doubles = 0;  ///< sum over the pool
};

Inputs make_rpc_inputs(Workload kind, std::uint64_t seed) {
  InputRng rng(seed);
  Inputs in;
  if (kind == Workload::kSoapBulk) {
    // Stratified log-uniform lengths in [64, 16384], shuffled: every seed
    // gets the same length distribution, in a different order.
    constexpr std::size_t kPool = 512;
    std::vector<std::size_t> lengths(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
      double u = (double(i) + rng.uniform()) / double(kPool);
      lengths[i] = std::size_t(std::lround(64.0 * std::pow(256.0, u)));
    }
    for (std::size_t i = kPool - 1; i > 0; --i) std::swap(lengths[i], lengths[rng.below(i + 1)]);
    for (std::size_t len : lengths) in.arrays.emplace_back(len);
  } else {
    in.arrays.assign(4096, std::vector<double>(8));
  }
  for (auto& a : in.arrays) {
    for (double& v : a) v = (rng.uniform() - 0.5) * 2048.0;
    in.payload_doubles += a.size();
  }
  return in;
}

// ---- results of one measured phase ---------------------------------------------------

/// Log-linear latency histogram: exact below 256 ns, then 128 buckets per
/// power of two (under 0.8% bucket width). Fixed memory, so the
/// benchmark's own bookkeeping does not grow peak_rss_mb with run length.
class LatencyHistogram {
 public:
  void add(std::int64_t ns) {
    ++counts_[bucket(std::uint64_t(std::max<std::int64_t>(ns, 0)))];
    ++total_;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
  }
  std::uint64_t total() const { return total_; }

  /// The p-quantile in µs, interpolated linearly inside its bucket.
  double quantile_us(double p) const {
    if (total_ == 0) return 0;
    const double rank = p * double(total_ - 1);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0 || double(below + counts_[b]) <= rank) {
        below += counts_[b];
        continue;
      }
      const double into = (rank - double(below) + 0.5) / double(counts_[b]);
      return (double(lower(b)) + into * double(width(b))) / 1e3;
    }
    return double(lower(kBuckets - 1)) / 1e3;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kLinear = 256;
  static constexpr std::size_t kBuckets = kLinear + (64 - 8) * (1u << kSubBits);

  static std::size_t bucket(std::uint64_t v) {
    if (v < kLinear) return std::size_t(v);
    const int e = 63 - __builtin_clzll(v);  // >= 8
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + std::size_t(e - 8) * (1u << kSubBits) + std::size_t(sub);
  }
  static std::uint64_t lower(std::size_t b) {
    if (b < kLinear) return b;
    const int e = int((b - kLinear) >> kSubBits) + 8;
    const std::uint64_t sub = (b - kLinear) & ((1u << kSubBits) - 1);
    return ((1ull << kSubBits) + sub) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t b) {
    return b < kLinear ? 1 : 1ull << (int((b - kLinear) >> kSubBits) + 8 - kSubBits);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// The q-quantile of `v`, interpolated linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

struct ThreadResult {
  std::uint64_t units = 0;     ///< logical ops (sub-calls on xdr-batch)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    ///< errors + wrong results
  std::uint64_t wrong = 0;
  std::uint64_t payload_bytes = 0;
  std::int64_t busy_ns = 0;    ///< phase start → this thread's last op end
  std::array<std::uint64_t, kWindows> window_units{};
  std::vector<LatencyHistogram> window_latency =
      std::vector<LatencyHistogram>(kWindows);  ///< per window, ops ending in it
  Accum traced;
  /// Self-check phase: per pair of ops on the same input, the planted
  /// op's self times minus the unplanted one's, per logical op.
  std::vector<std::array<double, kLayerCount>> pair_deltas_ns;
  // dvm-state, traced ops only: SimNetwork messages and read repairs.
  std::uint64_t sets = 0, gets = 0, set_msgs = 0, get_msgs = 0, read_repairs = 0;
};

struct Phase {
  std::int64_t start = 0;
  std::int64_t length_ns = 0;
  std::vector<ThreadResult> threads;
  std::vector<std::vector<Span>> spans;  ///< retained spans, per thread

  std::uint64_t units() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.units;
    return n;
  }
  std::uint64_t sum(std::uint64_t ThreadResult::*field) const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.*field;
    return n;
  }
  Accum traced() const {
    Accum a;
    for (const auto& t : threads) a.add(t.traced);
    return a;
  }
  /// Traced end-to-end time per logical op, as seen by the client threads.
  double e2e_us_per_unit() const {
    std::int64_t busy = 0;
    for (const auto& t : threads) busy += t.busy_ns;
    std::uint64_t n = units();
    return n == 0 ? 0.0 : double(busy) / 1e3 / double(n);
  }
  /// Median over kWindows equal windows of the aggregate op rate.
  double ops_per_s() const { return quantile(window_rates(), 0.5); }
  std::vector<double> window_rates() const {
    std::vector<double> rates;
    const double window_s = double(length_ns) / 1e9 / kWindows;
    for (int w = 0; w < kWindows; ++w) {
      std::uint64_t n = 0;
      for (const auto& t : threads) n += t.window_units[std::size_t(w)];
      rates.push_back(double(n) / window_s);
    }
    return rates;
  }
  double payload_per_unit() const {
    std::uint64_t n = units();
    return n == 0 ? 0.0 : double(sum(&ThreadResult::payload_bytes)) / double(n);
  }
  /// Median over the windows of each window's p-quantile latency, so host
  /// noise confined to a minority of windows does not move it.
  double latency_us(double p) const {
    std::vector<double> per_window;
    for (int w = 0; w < kWindows; ++w) {
      LatencyHistogram merged;
      for (const auto& t : threads) merged.merge(t.window_latency[std::size_t(w)]);
      per_window.push_back(merged.quantile_us(p));
    }
    return quantile(std::move(per_window), 0.5);
  }
  /// The p-quantile latency over every sample of the phase.
  double pooled_latency_us(double p) const {
    LatencyHistogram all;
    for (const auto& t : threads) {
      for (const auto& w : t.window_latency) all.merge(w);
    }
    return all.quantile_us(p);
  }
  /// Latency samples in the fewest-sampled window.
  std::uint64_t min_window_samples() const {
    std::uint64_t fewest = UINT64_MAX;
    for (int w = 0; w < kWindows; ++w) {
      std::uint64_t n = 0;
      for (const auto& t : threads) n += t.window_latency[std::size_t(w)].total();
      fewest = std::min(fewest, n);
    }
    return fewest;
  }
};

/// Records one completed op (`units` logical calls, of which `failed`
/// failed and `wrong` of those returned a wrong result).
void book(ThreadResult& r, const Phase& phase, std::int64_t t0, std::int64_t t1,
          std::uint64_t units, std::uint64_t payload, std::uint64_t failed,
          std::uint64_t wrong) {
  r.units += units;
  r.attempted += units;
  r.payload_bytes += payload;
  r.failed += failed;
  r.wrong += wrong;
  r.busy_ns = t1 - phase.start;
  const std::int64_t w = (t1 - phase.start) * kWindows / phase.length_ns;
  if (w >= 0 && w < kWindows) {
    r.window_units[std::size_t(w)] += units;
    r.window_latency[std::size_t(w)].add(t1 - t0);
  }
}

/// Self-check pairing: ops 2k and 2k+1 draw the same input, and one of
/// the two — first or second, alternating by pair — carries the planted
/// delay, so planted and unplanted ops see identical inputs.
bool planted_op(std::uint64_t n) { return ((n ^ (n >> 1)) & 1) != 0; }

enum class PhaseMode { kUntraced, kTraced, kPlanted };

// ---- the RPC world ---------------------------------------------------------------------

/// One client thread's channel stack and its listener port.
struct Client {
  std::unique_ptr<net::Channel> top;        // what the bench loop calls
  net::BatchChannel* batch = nullptr;       // set on xdr-batch
  SpanChannel* resilience = nullptr;        // span above ResilientChannel
};

class RpcWorld {
 public:
  explicit RpcWorld(Workload kind) : kind_(kind), sock_(net::SockFamily::kTcp, kReactors), net_(sock_) {}

  Status build() {
    auto client = sock_.add_host("client");
    auto server = sock_.add_host("server");
    if (!client.ok()) return client.error();
    if (!server.ok()) return server.error();
    dedup_ = std::make_shared<resil::DedupCache>(
        resil::kDefaultDedupCapacity, &net_.metrics().counter("h2.resil.dedup_hits"));
    auto service = std::make_shared<SpanDispatcher>(make_scale_service());
    for (int t = 0; t < kClientThreads; ++t) {
      std::unique_ptr<net::Channel> binding;
      const std::uint16_t port = std::uint16_t(kind_ == Workload::kSoapBulk ? 8080 + t : 9001 + t);
      if (kind_ == Workload::kSoapBulk) {
        auto http = std::make_unique<net::SoapHttpServer>(net_, *server, port);
        http->set_dedup(dedup_);
        if (auto s = http->start(); !s.ok()) return s;
        if (auto s = http->mount("svc", service); !s.ok()) return s;
        soap_servers_.push_back(std::move(http));
        auto ep = net::Endpoint::parse("http://server:" + std::to_string(port) + "/svc");
        if (!ep.ok()) return ep.error();
        binding = net::make_soap_channel(net_, *client, *ep, "urn:perfbench");
      } else {
        auto handle = net::serve_xdr(net_, *server, port, service, dedup_);
        if (!handle.ok()) return handle.error();
        xdr_servers_.push_back(std::move(*handle));
        auto ep = net::Endpoint::parse("xdr://server:" + std::to_string(port));
        if (!ep.ok()) return ep.error();
        binding = net::make_xdr_channel(net_, *client, *ep);
      }
      auto codec = std::make_unique<SpanChannel>(kCodecClient, std::move(binding));
      auto resilient = std::make_unique<resil::ResilientChannel>(
          std::move(codec), net_, resil::CallPolicy{},
          &resil::BreakerRegistry::of(net_).for_endpoint("server"), "server");
      const resil::ResilientChannel* resilient_raw = resilient.get();
      auto resil_span =
          std::make_unique<SpanChannel>(kResilience, std::move(resilient), resilient_raw);
      Client c;
      c.resilience = resil_span.get();
      if (kind_ == Workload::kXdrBatch) {
        auto batch = net::make_batch_channel(
            std::move(resil_span), net_, net::BatchPolicy{.max_batch = kBatch});
        c.batch = batch.get();
        c.top = std::move(batch);
      } else {
        c.top = std::move(resil_span);
      }
      // The first call dials the connection: part of set-up, not of the
      // measured ops.
      std::vector<Value> params{Value::of_doubles({1.0})};
      auto first = c.top->invoke("scale", params);
      if (!first.ok()) return first.error();
      clients_.push_back(std::move(c));
    }
    return Status::success();
  }

  net::SockNet& sock() { return sock_; }
  Client& client(int t) { return clients_[std::size_t(t)]; }
  std::uint64_t dedup_hits() { return net_.metrics().counter("h2.resil.dedup_hits").value(); }
  std::uint64_t flushes() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c.batch != nullptr ? c.batch->flushes() : 0;
    return n;
  }
  std::uint64_t resil_invocations() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c.resilience->invocations();
    return n;
  }
  std::uint64_t resil_attempts() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c.resilience->attempts();
    return n;
  }

 private:
  Workload kind_;
  // Destruction runs bottom-up: channels, then servers, then the sockets.
  net::SockNet sock_;
  SpanTransport net_;
  std::shared_ptr<resil::DedupCache> dedup_;
  std::vector<std::unique_ptr<net::SoapHttpServer>> soap_servers_;
  std::vector<net::ServerHandle> xdr_servers_;
  std::vector<Client> clients_;
};

/// Runs every client thread for `seconds` against `world`.
Phase run_rpc_phase(RpcWorld& world, Workload kind, const Inputs& inputs,
                    double seconds, PhaseMode mode, int clients = kClientThreads) {
  g_tracing.store(mode != PhaseMode::kUntraced);
  Phase phase;
  phase.threads.resize(std::size_t(clients));
  phase.length_ns = std::int64_t(seconds * 1e9);
  phase.start = now_ns();
  const std::int64_t deadline = phase.start + phase.length_ns;
  std::vector<Ledger> ledgers(static_cast<std::size_t>(clients));

  auto worker = [&](int t) {
    ThreadResult& r = phase.threads[std::size_t(t)];
    Client& client = world.client(t);
    Ledger& ledger = ledgers[std::size_t(t)];
    tl_ledger = &ledger;
    const bool tracing = mode != PhaseMode::kUntraced;
    const std::size_t pool = inputs.arrays.size();
    const std::size_t first = std::size_t(t) * pool / kClientThreads;
    std::vector<Value> params(1);
    std::vector<net::BatchChannel::Ticket> tickets;
    std::vector<const std::vector<double>*> sent;
    std::vector<Result<Value>> outs;
    SelfTimes first_of_pair{};
    // Books a traced op; in the self-check phase, pairs it with its twin.
    auto end_traced = [&](std::uint64_t n, bool planted, std::uint64_t units) {
      const SelfTimes self = ledger.end_op(units, r.traced);
      if (mode != PhaseMode::kPlanted) return;
      if (n % 2 == 0) {
        first_of_pair = self;
        return;
      }
      const SelfTimes& with = planted ? self : first_of_pair;
      const SelfTimes& without = planted ? first_of_pair : self;
      std::array<double, kLayerCount> delta{};
      for (int l = 0; l < kLayerCount; ++l) delta[l] = double(with[l] - without[l]) / double(units);
      r.pair_deltas_ns.push_back(delta);
    };
    for (std::uint64_t n = 0; now_ns() < deadline; ++n) {
      const bool planted = mode == PhaseMode::kPlanted && planted_op(n);
      const std::size_t draw = mode == PhaseMode::kPlanted ? n / 2 : n;
      if (kind != Workload::kXdrBatch) {
        const std::vector<double>& in = inputs.arrays[(first + draw) % pool];
        params[0] = Value::of_doubles(in);
        const std::int64_t t0 = now_ns();
        if (tracing) ledger.begin_op(planted);
        auto out = client.top->invoke("scale", params);
        if (tracing) end_traced(n, planted, 1);
        const std::int64_t t1 = now_ns();
        const bool wrong = out.ok() && !is_scaled(*out, in);
        book(r, phase, t0, t1, 1, 16 * in.size(), !out.ok() || wrong, wrong);
      } else {
        tickets.clear();
        sent.clear();
        for (std::size_t i = 0; i < kBatch; ++i) {
          sent.push_back(&inputs.arrays[(first + draw * kBatch + i) % pool]);
        }
        const std::int64_t t0 = now_ns();
        int root = -1;
        if (tracing) {
          ledger.begin_op(planted);
          root = ledger.open(kBatchLayer);
        }
        for (const auto* in : sent) {
          tickets.push_back(client.batch->enqueue("scale", {Value::of_doubles(*in)}));
        }
        outs.clear();
        for (auto ticket : tickets) outs.push_back(client.batch->take(ticket));
        if (tracing) {
          ledger.close(root);
          end_traced(n, planted, kBatch);
        }
        const std::int64_t t1 = now_ns();
        std::uint64_t failed = 0, wrong = 0;
        for (std::size_t i = 0; i < kBatch; ++i) {
          const bool bad_value = outs[i].ok() && !is_scaled(*outs[i], *sent[i]);
          failed += !outs[i].ok() || bad_value;
          wrong += bad_value;
        }
        book(r, phase, t0, t1, kBatch, 16 * 8 * kBatch, failed, wrong);
      }
    }
    tl_ledger = nullptr;
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  g_tracing.store(false);
  for (const auto& l : ledgers) phase.spans.push_back(l.retained());
  return phase;
}

// ---- the DVM world -----------------------------------------------------------------------

constexpr std::size_t kDvmNodes = 16;
constexpr std::size_t kDvmKeys = 4096;
constexpr std::size_t kDvmValues = 1024;
constexpr std::size_t kDvmValueBytes = 64;
constexpr double kDvmSetShare = 0.2;

struct DvmInputs {
  std::vector<std::string> nodes;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  std::vector<std::uint32_t> initial;  ///< preloaded value index per key
  std::uint64_t schedule_seed = 0;     ///< seeds the op mix
};

DvmInputs make_dvm_inputs(std::uint64_t seed) {
  InputRng rng(seed);
  DvmInputs in;
  for (std::size_t i = 0; i < kDvmNodes; ++i) in.nodes.push_back("n" + std::to_string(i));
  for (std::size_t k = 0; k < kDvmKeys; ++k) in.keys.push_back("perfbench/key-" + std::to_string(k));
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  for (std::size_t v = 0; v < kDvmValues; ++v) {
    std::string value(kDvmValueBytes, ' ');
    for (char& c : value) c = kAlphabet[rng.below(64)];
    in.values.push_back(std::move(value));
  }
  for (std::size_t k = 0; k < kDvmKeys; ++k) in.initial.push_back(std::uint32_t(rng.below(kDvmValues)));
  in.schedule_seed = rng.next();
  return in;
}

class DvmWorld {
 public:
  Status build(const DvmInputs& in) {
    if (auto s = plugins::register_standard_plugins(repo_); !s.ok()) return s;
    dvm_ = std::make_unique<dvm::Dvm>(
        "perfbench", dvm::make_sharded(dvm::ShardConfig{.shards = 64, .replicas = 3}));
    for (const std::string& name : in.nodes) {
      auto host = net_.add_host(name);
      if (!host.ok()) return host.error();
      containers_.push_back(std::make_unique<container::Container>(name, repo_, net_, *host));
      if (auto joined = dvm_->add_node(*containers_.back()); !joined.ok()) return joined.error();
    }
    for (std::size_t k = 0; k < kDvmKeys; ++k) {
      auto s = dvm_->set(in.nodes[k % kDvmNodes], in.keys[k], in.values[in.initial[k]]);
      if (!s.ok()) return s;
    }
    return Status::success();
  }

  net::SimNetwork& net() { return net_; }
  dvm::Dvm& dvm() { return *dvm_; }

 private:
  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  std::unique_ptr<dvm::Dvm> dvm_;
};

/// Runs the seeded get/set mix on this thread for `seconds`. `shadow`
/// holds the last written value index per key and carries over phases.
Phase run_dvm_phase(DvmWorld& world, const DvmInputs& in, InputRng& schedule,
                    std::vector<std::uint32_t>& shadow, double seconds, PhaseMode mode) {
  Phase phase;
  phase.threads.resize(1);
  phase.length_ns = std::int64_t(seconds * 1e9);
  phase.start = now_ns();
  const std::int64_t deadline = phase.start + phase.length_ns;
  const bool tracing = mode != PhaseMode::kUntraced;
  ThreadResult& r = phase.threads[0];
  Ledger ledger;
  obs::Counter& repairs = world.net().metrics().counter("h2.dvm.shard.read_repairs");
  while (now_ns() < deadline) {
    const std::string& origin = in.nodes[schedule.below(kDvmNodes)];
    const std::size_t key = schedule.below(kDvmKeys);
    const bool is_set = schedule.uniform() < kDvmSetShare;
    const auto value = std::uint32_t(schedule.below(kDvmValues));
    const std::uint64_t msgs0 = world.net().stats().messages;
    const std::uint64_t repairs0 = repairs.value();
    const std::int64_t t0 = now_ns();
    int idx = -1;
    if (tracing) {
      ledger.begin_op(false);
      idx = ledger.open(is_set ? kDvmSet : kDvmGet);
    }
    bool set_ok = false;
    std::optional<Result<std::string>> got;
    if (is_set) {
      set_ok = world.dvm().set(origin, in.keys[key], in.values[value]).ok();
    } else {
      got = world.dvm().get(origin, in.keys[key]);
    }
    if (tracing) {
      ledger.close(idx);
      ledger.end_op(1, r.traced);
    }
    const std::int64_t t1 = now_ns();
    bool failed = false, wrong = false;
    if (is_set) {
      failed = !set_ok;
      if (set_ok) shadow[key] = value;
    } else {
      // Every key is preloaded, so "not found" is a wrong answer too.
      wrong = got->ok() ? **got != in.values[shadow[key]]
                        : got->error().code() == ErrorCode::kNotFound;
      failed = !got->ok() || wrong;
    }
    book(r, phase, t0, t1, 1, kDvmValueBytes, failed, wrong);
    if (tracing) {
      const std::uint64_t msgs = world.net().stats().messages - msgs0;
      if (is_set) {
        ++r.sets;
        r.set_msgs += msgs;
      } else {
        ++r.gets;
        r.get_msgs += msgs;
        r.read_repairs += repairs.value() - repairs0;
      }
    }
  }
  phase.spans.push_back(ledger.retained());
  return phase;
}

// ---- reporting -------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string env_json(const WorkloadInfo& w, std::uint64_t seed, int seconds, int trace) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %d, \"trace\": %d, \"nproc\": %u, "
                "\"build_type\": \"%s\", \"optimized\": %s, \"compiler\": \"%s\", "
                "\"client_threads\": %d, \"reactors\": %zu, \"link\": \"%s\"}",
                w.name, seed, seconds, trace, std::thread::hardware_concurrency(),
                H2_BENCH_BUILD_TYPE, kOptimized ? "true" : "false", H2_BENCH_COMPILER,
                w.kind == Workload::kDvmState ? 1 : kClientThreads,
                w.kind == Workload::kDvmState ? std::size_t(0) : kReactors, w.link);
  return buf;
}

/// Writes the traced phase's retained spans as JSON lines after an
/// environment header. Times are ns from the phase start.
bool write_spans(const std::string& path, const std::string& env, const Phase& phase) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"env\": %s}\n", env.c_str());
  for (std::size_t t = 0; t < phase.spans.size(); ++t) {
    std::uint64_t op = 0;
    int index = 0;
    for (const Span& s : phase.spans[t]) {
      if (s.op != op) {
        op = s.op;
        index = 0;
      }
      std::fprintf(out,
                   "{\"thread\": %zu, \"op\": %" PRIu64 ", \"i\": %d, \"parent\": %d, "
                   "\"name\": \"%s\", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64 "}\n",
                   t, s.op, index++, s.parent, kLayerNames[s.layer], s.start - phase.start,
                   s.end - phase.start);
    }
  }
  return std::fclose(out) == 0;
}

/// End-to-end metrics of one untraced phase.
void add_e2e(std::vector<Metric>& m, const Phase& p, double wire_bytes,
             double setup_s) {
  const double ops = p.ops_per_s();
  std::printf("# window rates (1/s):");
  for (double r : p.window_rates()) std::printf(" %.0f", r);
  std::printf("\n");
  m.push_back({"ops_per_s", ops, "1/s"});
  // latency_p99_us is reported by the traced run, ungated: on a shared VM
  // host preemption bursts swing it by up to 4x from run to run.
  m.push_back({"latency_p50_us", p.latency_us(0.50), "us"});
  std::printf("# latency_p50_us: median over %d windows of each window's p50; fewest samples"
              " in a window %" PRIu64 "\n", kWindows, p.min_window_samples());
  std::printf("# latency_p99_us %.3f us over all %" PRIu64 " samples (ungated)\n",
              p.pooled_latency_us(0.99), p.sum(&ThreadResult::units));
  m.push_back({"payload_mb_per_s", ops * p.payload_per_unit() / 1e6, "MB/s"});
  m.push_back({"wire_bytes_per_op", ratio(wire_bytes, double(p.units())), "B"});
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atoi(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--spans") a.spans = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "h2_e2e: %s\n", what.c_str());
  std::exit(1);
}

/// What one run measured, whichever workload it ran.
struct Outcome {
  std::vector<Metric> metrics;  ///< end-to-end metrics (--trace 0)
  /// Per-layer metrics every traced run reports; layers a workload does
  /// not cross stay 0.
  std::map<std::string, double> layer = {
      {"resilience.self_us", 0}, {"resilience.attempts_per_call", 0},
      {"resilience.dedup_hits", 0}, {"batch.self_us", 0}, {"batch.fill_ratio", 0},
      {"codec.client_us", 0}, {"codec.server_us", 0}, {"transport.wire_us", 0},
      {"transport.round_trips_per_call", 0}, {"transport.calls_per_dial", 0},
      {"transport.conn_errors", 0}, {"dispatch.handler_us", 0}, {"dvm.set_us", 0},
      {"dvm.get_us", 0}, {"dvm.msgs_per_set", 0}, {"dvm.msgs_per_get", 0},
      {"dvm.read_repairs_per_get", 0}, {"trace.overhead_frac", 0},
      {"trace.unattributed_frac", 0}, {"trace.e2e_us", 0}, {"failed_frac", 0},
      {"selfcheck.planted_us", 0}, {"selfcheck.planted_dispatch_frac", 0},
      {"selfcheck.planted_leak_frac", 0}, {"latency_p99_us", 0}};
  Phase traced;  ///< the ledger's phase (--trace 1)
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  bool checks_ok = true;

  void tally(const Phase& p) {
    attempted += p.sum(&ThreadResult::attempted);
    failed += p.sum(&ThreadResult::failed);
    wrong += p.sum(&ThreadResult::wrong);
  }
};

/// Builds the world `repeats` times, keeping the last; returns the median
/// build time in seconds.
template <typename World, typename Build>
double set_up(std::unique_ptr<World>& world, int repeats, Build build) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = build();
    times.push_back(double(now_ns() - t0) / 1e9);
  }
  return quantile(std::move(times), 0.5);
}

void run_dvm_workload(const Args& args, Outcome& out) {
  const DvmInputs inputs = make_dvm_inputs(args.seed);
  std::unique_ptr<DvmWorld> world;
  const double setup_s = set_up(world, kDvmSetupRepeats, [&] {
    auto w = std::make_unique<DvmWorld>();
    if (auto s = w->build(inputs); !s.ok()) die("dvm set-up failed: " + s.error().message());
    return w;
  });
  std::vector<std::uint32_t> shadow = inputs.initial;
  InputRng schedule(inputs.schedule_seed);
  auto run = [&](double seconds, PhaseMode mode) {
    Phase p = run_dvm_phase(*world, inputs, schedule, shadow, seconds, mode);
    out.tally(p);
    return p;
  };
  const double seconds = args.seconds;
  run(std::min(1.0, 0.1 * seconds), PhaseMode::kUntraced);  // warm-up
  if (args.trace == 0) {
    const std::uint64_t bytes0 = world->net().stats().bytes;
    Phase p = run(seconds, PhaseMode::kUntraced);
    add_e2e(out.metrics, p, double(world->net().stats().bytes - bytes0), setup_s);
    return;
  }
  Phase plain = run(seconds / 2, PhaseMode::kUntraced);
  out.layer["latency_p99_us"] = plain.pooled_latency_us(0.99);
  out.traced = run(seconds / 2, PhaseMode::kTraced);
  const Accum a = out.traced.traced();
  const ThreadResult& r = out.traced.threads[0];
  out.layer["dvm.set_us"] = a.us_per_root(kDvmSet);
  out.layer["dvm.get_us"] = a.us_per_root(kDvmGet);
  out.layer["dvm.msgs_per_set"] = ratio(double(r.set_msgs), double(r.sets));
  out.layer["dvm.msgs_per_get"] = ratio(double(r.get_msgs), double(r.gets));
  out.layer["dvm.read_repairs_per_get"] = ratio(double(r.read_repairs), double(r.gets));
  out.layer["trace.overhead_frac"] = 1.0 - ratio(out.traced.ops_per_s(), plain.ops_per_s());
}

void run_rpc_workload(const Args& args, Workload kind, Outcome& out) {
  const Inputs inputs = make_rpc_inputs(kind, args.seed);
  std::unique_ptr<RpcWorld> world;
  const double setup_s = set_up(world, kRpcSetupRepeats, [&] {
    auto w = std::make_unique<RpcWorld>(kind);
    if (auto s = w->build(); !s.ok()) die("rpc set-up failed: " + s.error().message());
    return w;
  });
  auto run = [&](double seconds, PhaseMode mode, int clients = kClientThreads) {
    Phase p = run_rpc_phase(*world, kind, inputs, seconds, mode, clients);
    out.tally(p);
    return p;
  };
  const double seconds = args.seconds;
  run(std::min(1.0, 0.1 * seconds), PhaseMode::kUntraced);  // warm-up
  net::SockNet& sock = world->sock();
  if (args.trace == 0) {
    const std::uint64_t bytes0 = sock.stats().bytes;
    Phase p = run(seconds, PhaseMode::kUntraced);
    add_e2e(out.metrics, p, double(sock.stats().bytes - bytes0), setup_s);
    return;
  }

  Phase plain = run(0.4 * seconds, PhaseMode::kUntraced);
  out.layer["latency_p99_us"] = plain.pooled_latency_us(0.99);
  const std::uint64_t calls0 = sock.stats().calls;
  const std::uint64_t hits0 = world->dedup_hits();
  const std::uint64_t flushes0 = world->flushes();
  const std::uint64_t resil_calls0 = world->resil_invocations();
  const std::uint64_t attempts0 = world->resil_attempts();
  out.traced = run(0.4 * seconds, PhaseMode::kTraced);
  const double units = double(out.traced.units());
  const Accum a = out.traced.traced();
  auto& layer = out.layer;
  layer["resilience.self_us"] = a.us_per_unit(kResilience);
  layer["resilience.attempts_per_call"] = ratio(
      double(world->resil_attempts() - attempts0), double(world->resil_invocations() - resil_calls0));
  layer["resilience.dedup_hits"] = double(world->dedup_hits() - hits0);
  layer["batch.self_us"] = a.us_per_unit(kBatchLayer);
  if (kind == Workload::kXdrBatch) {
    layer["batch.fill_ratio"] = ratio(units, double(world->flushes() - flushes0)) / double(kBatch);
  }
  layer["codec.client_us"] = a.us_per_unit(kCodecClient);
  layer["codec.server_us"] = a.us_per_unit(kCodecServer);
  layer["transport.wire_us"] = a.us_per_unit(kTransport);
  layer["transport.round_trips_per_call"] = ratio(double(sock.stats().calls - calls0), units);
  layer["transport.calls_per_dial"] =
      ratio(double(sock.stats().calls), double(sock.connections_dialed()));
  layer["transport.conn_errors"] = double(sock.conn_errors());
  layer["dispatch.handler_us"] = a.us_per_unit(kDispatch);
  layer["trace.overhead_frac"] = 1.0 - ratio(out.traced.ops_per_s(), plain.ops_per_s());

  // Planted-delay self-check: one op of each same-input pair spins in the
  // service for half the traced time per op. The ledger must book that
  // spin to the dispatch layer and nowhere else. It runs one client thread: with
  // two, one reactor's spin slows the other's codec work, which is real
  // interference but not an attribution error.
  const double planted_us = 0.5 * out.traced.e2e_us_per_unit();
  g_planted_ns.store(std::int64_t(planted_us * 1e3));
  Phase check = run(0.2 * seconds, PhaseMode::kPlanted, 1);
  g_planted_ns.store(0);
  // The median over pairs, not the mean: a host preemption stall in one op
  // of a pair is not an attribution error.
  auto moved_us = [&](Layer l) {
    std::vector<double> deltas;
    for (const auto& d : check.threads[0].pair_deltas_ns) deltas.push_back(d[l] / 1e3);
    return quantile(std::move(deltas), 0.5);
  };
  double leak = 0;
  for (Layer l : {kBatchLayer, kResilience, kCodecClient, kTransport, kCodecServer}) {
    const double delta = moved_us(l);
    std::printf("# selfcheck: planted ops moved %s by %+.3f us\n", kLayerNames[l], delta);
    leak = std::max(leak, std::fabs(delta) / planted_us);
  }
  const double dispatch_frac = moved_us(kDispatch) / planted_us;
  layer["selfcheck.planted_us"] = planted_us;
  layer["selfcheck.planted_dispatch_frac"] = dispatch_frac;
  layer["selfcheck.planted_leak_frac"] = leak;
  if (std::fabs(dispatch_frac - 1.0) > kPlantedTolerance || leak > kPlantedTolerance) {
    std::printf("# CHECK FAILED: planted %.2f us booked %.3f to dispatch, max %.3f elsewhere"
                " (tolerance %.2f)\n", planted_us, dispatch_frac, leak, kPlantedTolerance);
    out.checks_ok = false;
  }
}

/// The ledger must add up: layer self times per op against the traced
/// end-to-end time per op seen by the client threads.
void check_ledger(Outcome& out) {
  const Accum a = out.traced.traced();
  double self_sum = 0;
  bool negative = false;
  for (int l = 0; l < kLayerCount; ++l) {
    self_sum += a.us_per_unit(Layer(l));
    negative = negative || a.self_ns[l] < 0;
  }
  const double e2e = out.traced.e2e_us_per_unit();
  const double unattributed = ratio(e2e - self_sum, e2e);
  out.layer["trace.e2e_us"] = e2e;
  out.layer["trace.unattributed_frac"] = unattributed;
  std::printf("# ledger: layer self times sum to %.3f us of %.3f us traced per op "
              "(unattributed %.4f, bound %.2f)\n", self_sum, e2e, unattributed, kLedgerBound);
  if (std::fabs(unattributed) > kLedgerBound || negative) {
    std::printf("# CHECK FAILED: per-layer ledger does not add up\n");
    out.checks_ok = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    die("usage: h2_e2e --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]");
  }
  const WorkloadInfo* info = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) info = &w;
  }
  if (info == nullptr) die("unknown workload '" + args.workload + "'");

  const std::string env = env_json(*info, args.seed, args.seconds, args.trace);
  std::printf("# env %s\n", env.c_str());
  if (!kOptimized) std::printf("# WARNING: built without optimisation; timings are not representative\n");

  Outcome out;
  if (info->kind == Workload::kDvmState) {
    run_dvm_workload(args, out);
  } else {
    run_rpc_workload(args, info->kind, out);
  }

  std::vector<Metric> metrics = out.metrics;
  if (args.trace == 1) {
    check_ledger(out);
    out.layer["failed_frac"] = ratio(double(out.failed), double(out.attempted));
    for (const auto& [name, value] : out.layer) {
      const bool count = name == "resilience.dedup_hits" || name == "transport.conn_errors";
      metrics.push_back({name, value, name.ends_with("_us") ? "us" : count ? "count" : "ratio"});
    }
    if (!args.spans.empty() && !write_spans(args.spans, env, out.traced)) {
      die("cannot write spans to " + args.spans);
    }
  } else {
    std::printf("# latency samples: one per %s\n",
                info->kind == Workload::kXdrBatch ? "64-call round" : "op");
  }

  std::printf("# attempted %" PRIu64 " failed %" PRIu64 " (wrong results %" PRIu64
              ", failed_frac %.6g)\n", out.attempted, out.failed, out.wrong,
              ratio(double(out.failed), double(out.attempted)));
  for (const Metric& m : metrics) {
    std::printf("# %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = out.wrong == 0 && out.checks_ok;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {", correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Shortest text that reads back as the same double: every measured
    // digit, no rounding.
    char value[32];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    *std::to_chars(value, value + sizeof(value) - 1, v).ptr = '\0';
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
