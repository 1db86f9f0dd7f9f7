// chain_sessions and described_nets: closed-loop clients driving an
// in-process net::NetServer built from NetConfig defaults (only the
// session capacity is set, to cover the frames in flight).
//
// Two batch connections keep `depth` whole-lifecycle frames in flight
// each; a third, streaming connection opens + runs a session and polls
// `drain` to time the first spike.  That is nproc - 1 client threads on a
// 4-core host, so the server keeps a core.  Between wire segments the
// benchmark replays a sample of the specs in process (both engines) to gate
// the wire streams and split a session into layers; at the end it scrapes
// `metrics` once and checks the server's counters against its own.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace spinn;

namespace {

using Events = std::vector<neural::SpikeRecorder::Event>;

constexpr int kBatchConnections = 2;
/// Sessions-per-second is the median over windows of this length.
constexpr double kWindowS = 0.5;
/// Share of --seconds spent driving the wire; the rest replays specs in
/// process, repeating the sample until that time is used up.
constexpr double kWireShare = 0.75;
/// Wire and replay segments alternate this many times per run.
constexpr int kCycles = 6;

/// net::Client plus the frame and byte counts the scrape cross-check
/// compares with the server's.
class Conn {
 public:
  explicit Conn(std::uint16_t port) : client_(port) {}

  bool send(const std::string& frame) {
    ++frames_sent;
    bytes_sent += net::kFrameHeader + frame.size();
    return client_.send(frame);
  }
  std::string receive() {
    std::string reply = client_.receive();
    if (!reply.empty()) {
      ++frames_received;
      bytes_received += net::kFrameHeader + reply.size();
    }
    return reply;
  }
  std::string request(const std::string& frame) {
    return send(frame) ? receive() : std::string();
  }
  bool alive() const { return client_.connected(); }

  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;

 private:
  net::Client client_;
};

std::uint64_t stream_hash(const Events& events) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& e : events) {
    for (const std::uint64_t v : {static_cast<std::uint64_t>(e.time),
                                  static_cast<std::uint64_t>(e.key)}) {
      h = (h ^ v) * 0x100000001b3ull;
    }
  }
  return h;
}

/// Value of ` key=<n>` in a status line (0 when absent).
std::uint64_t status_field(const std::string& line, const std::string& key) {
  const auto at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 2, nullptr, 10);
}

/// The verbs of a frame, one per response block (a `net` block is one).
std::vector<std::string> frame_verbs(const std::string& frame) {
  std::vector<std::string> verbs;
  std::istringstream in(frame);
  std::string line;
  bool in_net = false;
  while (std::getline(in, line)) {
    const std::string verb = line.substr(0, line.find(' '));
    if (in_net) {
      in_net = verb != "end";
      continue;
    }
    if (verb == "net") in_net = true;
    verbs.push_back(verb);
  }
  return verbs;
}

/// What a reply said, once checked block by block against the verbs of
/// the frame that asked.
struct Reply {
  bool ok = false;
  std::string error;
  Events events;
  server::SessionId id = server::kInvalidSession;
  bool closed = false;
  bool faulted = false;
  std::string status;
};

Reply check_reply(const std::vector<std::string>& verbs,
                  const std::string& payload, bool need_spikes) {
  Reply r;
  const auto blocks = net::Client::split_response(payload);
  const auto fail = [&](const std::string& why) {
    r.error = why;
    return r;
  };
  if (payload.empty()) return fail("connection lost");
  if (blocks.size() != verbs.size()) {
    return fail("expected " + std::to_string(verbs.size()) + " blocks, got " +
                std::to_string(blocks.size()) + ": " + blocks[0]);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::string& b = blocks[i];
    const std::string& v = verbs[i];
    bool good = false;
    if (v == "net") {
      good = b.rfind("ok net ", 0) == 0;
    } else if (v == "open") {
      good = net::parse_open_id(b, &r.id);
    } else if (v == "run" || v == "fault") {
      good = b == "ok";
      r.faulted = r.faulted || (good && v == "fault");
    } else if (v == "wait") {
      good = b == "ok t=" + std::to_string(kSessionBio);
    } else if (v == "drain") {
      Events part;
      good = net::parse_spikes(b, &part);
      r.events.insert(r.events.end(), part.begin(), part.end());
    } else if (v == "status") {
      good = b.find(" load_ok=1") != std::string::npos;
      r.status = b;
    } else if (v == "close") {
      good = r.closed = b == "ok";
    }
    if (!good) {
      return fail("block " + std::to_string(i + 1) + " (" + v + "): " + b);
    }
  }
  if (need_spikes && r.events.empty()) return fail("no spikes");
  r.ok = true;
  return r;
}

struct Op {
  std::int64_t sent = 0;
  std::int64_t replied = 0;
  std::uint32_t spec = 0;
  bool ok = false;
  std::uint64_t hash = 0;
  std::uint32_t request_bytes = 0;
  std::uint32_t response_bytes = 0;
};

struct FaultSeen {
  std::uint64_t migrations = 0;
  std::uint64_t recovery_ns = 0;
  std::uint64_t spikes_lost = 0;
};

/// What one client thread saw.
struct Tally {
  std::vector<Op> ops;
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t faults = 0;
  std::map<std::uint32_t, FaultSeen> fault_status;  // first reply per spec
  std::vector<std::string> errors;                  // first few only
  std::size_t cursor = 0;  // position in the spec walk, kept across segments

  void error(const std::string& why) {
    if (errors.size() < 5) errors.push_back(why);
  }
  void count(const Reply& r) {
    opened += r.id != server::kInvalidSession ? 1 : 0;
    closed += r.closed ? 1 : 0;
    faults += r.faulted ? 1 : 0;
  }
};

/// A batch connection: keep `depth` lifecycle frames in flight until
/// `stop`, then collect the replies still owed.  Connection c walks specs
/// c, c + 2, c + 4, ... (its cursor starts at c).
void drive_batches(Conn& conn, const std::vector<WireSpec>& specs,
                   const std::vector<std::vector<std::string>>& verbs,
                   int depth, const std::atomic<bool>& stop, Tally& out) {
  std::deque<Op> inflight;
  bool lost = !conn.alive();
  for (;;) {
    while (!lost && !stop.load(std::memory_order_relaxed) &&
           inflight.size() < static_cast<std::size_t>(depth)) {
      Op op;
      op.spec = static_cast<std::uint32_t>(out.cursor % specs.size());
      out.cursor += kBatchConnections;
      op.sent = now_ns();
      op.request_bytes = static_cast<std::uint32_t>(
          net::kFrameHeader + specs[op.spec].frame.size());
      lost = !conn.send(specs[op.spec].frame);
      inflight.push_back(op);
    }
    if (inflight.empty()) break;
    Op op = inflight.front();
    inflight.pop_front();
    const std::string payload = lost ? std::string() : conn.receive();
    op.replied = now_ns();
    op.response_bytes =
        static_cast<std::uint32_t>(net::kFrameHeader + payload.size());
    const Reply r = check_reply(verbs[op.spec], payload, true);
    out.count(r);
    op.ok = r.ok;
    if (!r.ok) {
      lost = lost || payload.empty();
      out.error("spec " + std::to_string(op.spec) + ": " + r.error);
    } else {
      op.hash = stream_hash(r.events);
      if (!r.status.empty() && !out.fault_status.count(op.spec)) {
        out.fault_status[op.spec] =
            FaultSeen{status_field(r.status, "migrations"),
                      status_field(r.status, "recovery_ns"),
                      status_field(r.status, "spikes_lost")};
      }
    }
    out.ops.push_back(op);
  }
}

/// The streaming connection: open + run one session, poll `drain` until the
/// first spike arrives (that interval is one TTFS sample), then wait,
/// drain the rest and close.  `sent`/`replied` of each Op bracket the
/// first-spike interval.
void drive_probes(Conn& conn, const std::vector<WireSpec>& specs,
                  const std::vector<std::uint32_t>& order,
                  const std::atomic<bool>& stop, Tally& out) {
  while (conn.alive() && !stop.load(std::memory_order_relaxed)) {
    Op op;
    op.spec = order[out.cursor++ % order.size()];
    const std::string first = open_run_frame(specs[op.spec]);
    op.sent = now_ns();
    const std::string opened = conn.request(first);
    const Reply head = check_reply(frame_verbs(first), opened, false);
    out.count(head);
    std::string why = head.error;
    const std::string sid = std::to_string(head.id);
    Events events;
    for (int polls = 1; why.empty() && events.empty(); ++polls) {
      const std::string drained = conn.request("drain " + sid);
      if (!net::parse_spikes(drained, &events)) {
        why = "drain: " + drained;
      } else if (events.empty() && polls % 64 == 0) {
        // Bounded: once the run is over, one last drain must hold a spike.
        const std::string st = conn.request("status " + sid);
        if (status_field(st, "t") >= static_cast<std::uint64_t>(kSessionBio) &&
            (!net::parse_spikes(conn.request("drain " + sid), &events) ||
             events.empty())) {
          why = "no spike before the run ended";
        }
      }
    }
    op.replied = now_ns();
    if (head.ok) {
      const Reply tail =
          check_reply({"wait", "drain", "close"},
                      conn.request("wait " + sid + "\ndrain " + sid +
                                   "\nclose " + sid),
                      false);
      out.count(tail);
      if (why.empty()) why = tail.error;
      events.insert(events.end(), tail.events.begin(), tail.events.end());
    }
    op.ok = why.empty();
    if (op.ok) {
      op.hash = stream_hash(events);
    } else {
      out.error("probe of spec " + std::to_string(op.spec) + ": " + why);
    }
    out.ops.push_back(op);
  }
}

/// One spec replayed in process on both engines (and, on its first
/// replay, through server::run_standalone); spike streams are kept as
/// hashes only.
struct Replay {
  std::uint32_t spec = 0;
  bool first = false;
  std::uint64_t serial_hash = 0;
  std::uint64_t sharded_hash = 0;
  std::uint64_t standalone_hash = 0;  // first replay of a fault-free spec
  Lifecycle serial;
  Lifecycle sharded;
};

Replay replay_spec(const WireSpec& w, std::uint32_t index, bool first,
                   bool split_load, Spans& spans, std::uint64_t& trace_id) {
  Replay r;
  r.spec = index;
  r.first = first;
  LifecycleInput in;
  in.config = server::system_config(w.spec);
  in.spec = &w.spec;
  in.fault = w.faulted ? &w.fault : nullptr;
  in.fault_seed = w.spec.seed;
  in.duration = kSessionBio;
  in.split_load = split_load;
  in.check_synapses = first;
  r.serial = run_lifecycle(in, spans, trace_id++);
  in.config.engine =
      sharded_engine(static_cast<std::size_t>(w.spec.width) * w.spec.height);
  in.check_synapses = false;
  r.sharded = run_lifecycle(in, spans, trace_id++);
  r.serial_hash = stream_hash(r.serial.spikes);
  r.sharded_hash = stream_hash(r.sharded.spikes);
  r.serial.spikes.clear();
  r.sharded.spikes.clear();
  if (first && !w.faulted) {
    r.standalone_hash =
        stream_hash(server::run_standalone(w.spec, kSessionBio));
  }
  return r;
}

/// Parses a `metrics` reply into name -> value.
std::map<std::string, double> parse_metrics(const std::string& reply) {
  std::map<std::string, double> out;
  std::istringstream in(reply);
  std::string line;
  std::getline(in, line);  // "metrics <n>"
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double us(double ns) { return ns / 1e3; }

}  // namespace

void run_wire(const Options& opt, Result& result) {
  const bool chain = opt.workload == "chain_sessions";
  const std::vector<WireSpec> specs =
      chain ? chain_specs(opt.seed, 1024) : described_specs(opt.seed, 64);
  std::vector<std::vector<std::string>> verbs;
  std::vector<std::uint32_t> probe_order;  // the streaming client skips faults
  for (std::uint32_t i = 0; i < specs.size(); ++i) {
    verbs.push_back(frame_verbs(specs[i].frame));
    if (!specs[i].faulted) probe_order.push_back(i);
  }
  const int depth = chain ? 4 : 2;
  Spans spans(opt.trace);

  net::NetConfig cfg;
  cfg.session.max_sessions = kBatchConnections * depth + 1;

  // Set-up, repeated: start the server and connect (and ping) the three
  // clients.  The last one stays up for the measurement.
  std::vector<double> setups;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < kSetupRepeats; ++i) {
    conns.clear();
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<net::NetServer>(cfg);
    for (int c = 0; c <= kBatchConnections; ++c) {
      conns.push_back(std::make_unique<Conn>(server->port()));
      if (conns.back()->request("ping") != "ok") {
        std::printf("set-up ping failed\n");
        result.correct = false;
        return;
      }
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Measure in kCycles rounds of [wire segment, replay segment], so both
  // kinds of sample span the whole run: on a shared host the machine's
  // speed drifts over seconds, and a metric sampled in one block of time
  // would inherit whichever phase that block landed in.  The first wire
  // segment begins with the warm-up (engine pool, allocator, the spec
  // frames' pages): max(1 s, seconds / 10), not measured.
  std::vector<Tally> tallies(kBatchConnections + 1);
  for (int c = 0; c < kBatchConnections; ++c) tallies[c].cursor = c;
  const std::size_t sample = chain ? 64 : specs.size();
  const double warm_s = std::max(1.0, opt.seconds / 10.0);
  const double wire_s = opt.seconds * kWireShare / kCycles;
  const double replay_s = opt.seconds * (1.0 - kWireShare) / kCycles;
  std::vector<std::pair<std::int64_t, std::int64_t>> segments;
  std::vector<Replay> replays;
  std::uint64_t trace_id = 1;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < kBatchConnections; ++c) {
      threads.emplace_back([&, c] {
        drive_batches(*conns[c], specs, verbs, depth, stop, tallies[c]);
      });
    }
    threads.emplace_back([&] {
      drive_probes(*conns[kBatchConnections], specs, probe_order, stop,
                   tallies[kBatchConnections]);
    });
    if (cycle == 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
    }
    const std::int64_t m0 = now_ns();
    std::this_thread::sleep_for(std::chrono::duration<double>(wire_s));
    segments.emplace_back(m0, now_ns());
    stop = true;
    for (auto& t : threads) t.join();

    const std::int64_t replay_end =
        now_ns() + static_cast<std::int64_t>(replay_s * 1e9);
    do {
      const auto i = static_cast<std::uint32_t>(replays.size() % sample);
      replays.push_back(replay_spec(specs[i], i, replays.size() < sample,
                                    opt.trace, spans, trace_id));
    } while (now_ns() < replay_end);
  }

  // ---- correctness: every reply parsed; one stream per spec ----------
  std::map<std::uint32_t, std::uint64_t> hash_of;
  std::uint64_t mismatched = 0;
  for (const Tally& t : tallies) {
    for (const Op& op : t.ops) {
      ++result.attempted;
      if (!op.ok) {
        ++result.failed;
        continue;
      }
      const auto [it, fresh] = hash_of.emplace(op.spec, op.hash);
      if (!fresh && it->second != op.hash) ++mismatched;
    }
    for (const std::string& e : t.errors) std::printf("failed: %s\n", e.c_str());
  }
  if (mismatched > 0) {
    std::printf("failed: %llu replies differ from an earlier reply for the "
                "same spec\n", static_cast<unsigned long long>(mismatched));
    result.failed += mismatched;
  }

  // ---- end-to-end metrics from the measured segments ------------------
  const auto in_segment = [&](std::int64_t t) {
    for (std::size_t s = 0; s < segments.size(); ++s) {
      if (t >= segments[s].first && t < segments[s].second) {
        return static_cast<int>(s);
      }
    }
    return -1;
  };
  // Each segment splits into equal windows of about kWindowS (at least
  // one); sessions/s is counted per window.
  std::vector<std::vector<double>> window_counts;
  const auto window_s = [&](std::size_t s) {
    return static_cast<double>(segments[s].second - segments[s].first) / 1e9 /
           static_cast<double>(window_counts[s].size());
  };
  for (const auto& [m0, m1] : segments) {
    window_counts.emplace_back(
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     static_cast<double>(m1 - m0) / 1e9 / kWindowS)),
        0.0);
  }
  std::vector<double> latency_ms, ttfs_ms, req_bytes, resp_bytes;
  for (int c = 0; c <= kBatchConnections; ++c) {
    for (const Op& op : tallies[c].ops) {
      if (!op.ok) continue;
      if (c == kBatchConnections) {
        if (in_segment(op.sent) >= 0) {
          ttfs_ms.push_back(static_cast<double>(op.replied - op.sent) / 1e6);
        }
        continue;
      }
      req_bytes.push_back(op.request_bytes);
      resp_bytes.push_back(op.response_bytes);
      const int s = in_segment(op.replied);
      if (s < 0) continue;
      latency_ms.push_back(static_cast<double>(op.replied - op.sent) / 1e6);
      const auto w = static_cast<std::size_t>(
          static_cast<double>(op.replied - segments[s].first) / 1e9 / window_s(s));
      window_counts[s][std::min(w, window_counts[s].size() - 1)] += 1.0 / window_s(s);
    }
  }
  std::vector<double> per_window;
  for (const auto& counts : window_counts) {
    per_window.insert(per_window.end(), counts.begin(), counts.end());
  }

  EndToEnd e2e;
  e2e.setup_s = median(setups);
  e2e.sessions_per_s = median(per_window);
  e2e.session_p50_ms = median(latency_ms);
  e2e.ttfs_p50_ms = median(ttfs_ms);
  std::printf("%s: %zu batch lifecycles + %zu TTFS probes in %d x %.2f s "
              "(after %.1f s warm-up), %d connections x %d in flight + 1 "
              "streaming, %zu reactors\n",
              opt.workload.c_str(), latency_ms.size(), ttfs_ms.size(), kCycles,
              wire_s, warm_s, kBatchConnections, depth,
              server->reactor_count());
  std::printf("  setup            %s s\n", describe(summarize(setups)).c_str());
  std::printf("  sessions/s       %s (per ~%.1f s window)\n",
              describe(summarize(per_window)).c_str(), kWindowS);
  std::printf("  session latency  %s ms\n",
              describe(summarize(latency_ms)).c_str());
  std::printf("  time to 1st spike %s ms\n", describe(summarize(ttfs_ms)).c_str());

  // ---- scrape cross-check ---------------------------------------------
  // All clients are idle: the server's counters must equal ours exactly.
  Conn& admin = *conns[kBatchConnections];
  std::uint64_t sent = 0, received = 0, bytes_in = 0, bytes_out = 0;
  std::uint64_t opened = 0, closed = 0, faults = 0;
  for (int c = 0; c <= kBatchConnections; ++c) {
    sent += conns[c]->frames_sent;
    received += conns[c]->frames_received;
    bytes_in += conns[c]->bytes_sent;
    bytes_out += conns[c]->bytes_received;
    opened += tallies[c].opened;
    closed += tallies[c].closed;
    faults += tallies[c].faults;
  }
  const std::string scrape_request = "metrics";
  const auto scraped = parse_metrics(admin.request(scrape_request));
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"net.frames_in", sent + 1},  // the scrape itself is decoded first
      {"net.frames_out", received},
      {"net.bytes_in", bytes_in + net::kFrameHeader + scrape_request.size()},
      {"net.bytes_out", bytes_out},
      {"net.faults", faults},
      {"server.opened", opened},
      {"server.closed", closed},
  };
  ++result.attempted;
  bool scrape_ok = true;
  for (const auto& [name, want] : expected) {
    const auto it = scraped.find(name);
    const double got = it == scraped.end() ? -1.0 : it->second;
    if (got != static_cast<double>(want)) {
      std::printf("failed: scrape %s=%.0f, client counted %llu\n", name.c_str(),
                  got, static_cast<unsigned long long>(want));
      scrape_ok = false;
    }
  }
  if (!scrape_ok) ++result.failed;
  const auto scraped_or_0 = [&](const std::string& name) {
    const auto it = scraped.find(name);
    return it == scraped.end() ? 0.0 : it->second;
  };
  const double scrape_ttfs_ns = scraped_or_0("server.ttfs_ns.p50");
  std::printf("  scrape: counters %s; server.ttfs_ns.p50=%.0f ns next to the "
              "client's ttfs p50 %.3f ms (not compared: 5 ms histogram bins)\n",
              scrape_ok ? "match the client's" : "MISMATCH", scrape_ttfs_ns,
              e2e.ttfs_p50_ms);

  Layers layers;
  std::vector<double> rtt_ns;
  if (opt.trace) {
    // Transport floor: ping round trips on the now idle connection.
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t t0 = now_ns();
      if (admin.request("ping") != "ok") {
        ++result.failed;
        break;
      }
      rtt_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    const double created = scraped_or_0("server.engines.created");
    const double reused = scraped_or_0("server.engines.reused");
    layers.set("net.ping_rtt_us", us(median(rtt_ns)));
    layers.set("net.frames", static_cast<double>(sent));
    layers.set("net.request_bytes", median(req_bytes));
    layers.set("net.response_bytes", median(resp_bytes));
    layers.set("server.scrape_ttfs_p50_us", us(scrape_ttfs_ns));
    layers.set("server.engine_reuse_frac",
               created + reused > 0 ? reused / (created + reused) : 0.0);
    layers.set("server.rejected", scraped_or_0("server.rejected"));
  }
  conns.clear();
  server.reset();

  // ---- in-process replays: gates and the layer split -----------------
  // Every wire stream of the sample must equal its serial replay, its
  // sharded replay and (fault-free specs) server::run_standalone; a
  // faulted spec's wire status must equal the replayed fault totals.
  std::map<std::uint32_t, FaultSeen> fault_status;
  for (const Tally& t : tallies) {
    fault_status.insert(t.fault_status.begin(), t.fault_status.end());
  }
  std::vector<Lifecycle> serial_runs, sharded_runs;
  std::vector<double> ev_serial, ev_sharded, build;
  FaultSeen wire_faults;
  std::uint64_t kills = 0;
  for (Replay& r : replays) {
    const WireSpec& w = specs[r.spec];
    const auto wire = hash_of.find(r.spec);
    std::string why;
    if (!r.serial.ok || !r.sharded.ok) {
      why = r.serial.ok ? r.sharded.error : r.serial.error;
    } else if (r.serial_hash != r.sharded_hash) {
      why = "serial and sharded replays differ";
    } else if (wire == hash_of.end()) {
      why = "spec never completed over the wire";
    } else if (wire->second != r.serial_hash) {
      why = "wire stream differs from the in-process replay";
    } else if (r.first && !w.faulted && r.standalone_hash != wire->second) {
      why = "wire stream differs from server::run_standalone";
    } else if (r.first && w.faulted) {
      const FaultSeen seen = fault_status[r.spec];
      const FaultTotals& f = r.serial.faults;
      if (seen.migrations != f.migrations ||
          seen.recovery_ns != static_cast<std::uint64_t>(f.recovery_ns) ||
          seen.spikes_lost != f.spikes_lost) {
        why = "wire fault status differs from the replayed fault totals";
      }
      ++kills;
      wire_faults.migrations += seen.migrations;
      wire_faults.recovery_ns += seen.recovery_ns;
      wire_faults.spikes_lost += seen.spikes_lost;
    }
    ++result.attempted;
    if (!why.empty()) {
      ++result.failed;
      std::printf("failed: replay of spec %u: %s\n", r.spec, why.c_str());
      continue;
    }
    const Lifecycle& s = r.serial;
    const Lifecycle& h = r.sharded;
    build.push_back((s.system_ns + s.load_ns) / 1e9);
    ev_serial.push_back(static_cast<double>(s.events) / (s.run_ns / 1e9));
    ev_sharded.push_back(static_cast<double>(h.events) / (h.run_ns / 1e9));
    serial_runs.push_back(s);
    sharded_runs.push_back(h);
  }
  replays.clear();
  e2e.build_s = median(build);
  e2e.events_per_s_serial = median(ev_serial);
  e2e.events_per_s_sharded = median(ev_sharded);
  std::printf("  replays          %zu in process (serial + sharded), gated "
              "against the wire and run_standalone\n",
              serial_runs.size());
  std::printf("  build (System+load) %s s\n", describe(summarize(build)).c_str());
  std::printf("  events/s serial  %s\n", describe(summarize(ev_serial)).c_str());
  std::printf("  events/s sharded %s\n", describe(summarize(ev_sharded)).c_str());
  if (kills > 0) {
    std::printf("  faults           %llu kills, %llu migrations, %.3f us "
                "recovery per kill, %llu spikes lost (simulated)\n",
                static_cast<unsigned long long>(kills),
                static_cast<unsigned long long>(wire_faults.migrations),
                us(static_cast<double>(wire_faults.recovery_ns)) /
                    static_cast<double>(kills),
                static_cast<unsigned long long>(wire_faults.spikes_lost));
  }

  if (!opt.trace) {
    e2e.emit(result);
    return;
  }

  // ---- traced run only: embedded SessionServer calls -------------------
  // The same specs and session config as the wire server, one call at a
  // time, so each verb's cost is visible without the transport.
  std::vector<double> t_open, t_run, t_wait, t_drain, t_close, t_ttfs;
  std::uint64_t server_calls = 0;
  {
    server::SessionServer embedded(cfg.session);
    const auto timed = [&](std::vector<double>& into, auto&& call) {
      const std::int64_t t0 = now_ns();
      const auto r = call();
      const std::int64_t t1 = now_ns();
      spans.add("server.call", trace_id, -1, t0, t1);
      into.push_back(static_cast<double>(t1 - t0));
      ++server_calls;
      return r;
    };
    for (std::uint32_t i = 0; i < sample; ++i) {
      const WireSpec& w = specs[i];
      ++trace_id;
      const server::SessionId id =
          timed(t_open, [&] { return embedded.open(w.spec); });
      if (w.faulted) embedded.fault(id, w.fault);
      timed(t_run, [&] { return embedded.run(id, kSessionBio); });
      timed(t_wait, [&] { return embedded.wait(id); });
      const Events events = timed(t_drain, [&] { return embedded.drain(id); });
      timed(t_close, [&] { return embedded.close(id); });
      ++result.attempted;
      if (id == server::kInvalidSession || stream_hash(events) != hash_of[i]) {
        ++result.failed;
        std::printf("failed: embedded session of spec %u differs from the "
                    "wire\n", i);
      }
      if (w.faulted) continue;
      // Embedded time to first spike: open_and_run, then poll drain.
      const std::int64_t t0 = now_ns();
      const server::SessionId sid = embedded.open_and_run(w.spec, kSessionBio);
      while (sid != server::kInvalidSession && embedded.drain(sid).empty() &&
             embedded.busy(sid)) {
      }
      t_ttfs.push_back(static_cast<double>(now_ns() - t0));
      embedded.wait(sid);
      embedded.close(sid);
    }
  }

  // Parser cost of one generated block (described nets only).
  std::vector<double> t_parse;
  if (!chain) {
    for (int rep = 0; rep < 8; ++rep) {
      for (const WireSpec& w : specs) {
        std::istringstream in(w.frame);
        std::string line;
        std::getline(in, line);  // "net"
        net::NetParser parser;
        const std::int64_t t0 = now_ns();
        net::NetParser::Status st = net::NetParser::Status::More;
        while (st == net::NetParser::Status::More && std::getline(in, line)) {
          st = parser.feed(line);
        }
        t_parse.push_back(static_cast<double>(now_ns() - t0));
        if (st != net::NetParser::Status::Done) ++result.failed;
      }
    }
  }

  layers.set("server.calls", static_cast<double>(server_calls));
  layers.set("server.open_us", us(median(t_open)));
  layers.set("server.run_us", us(median(t_run)));
  layers.set("server.wait_us", us(median(t_wait)));
  layers.set("server.drain_us", us(median(t_drain)));
  layers.set("server.close_us", us(median(t_close)));
  layers.set("server.ttfs_us", us(median(t_ttfs)));
  layers.set("net.parse_us", us(median(t_parse)));
  layers.set("fault.kills", static_cast<double>(kills));
  layers.set("fault.migrations", static_cast<double>(wire_faults.migrations));
  const double per_kill = kills > 0 ? 1.0 / static_cast<double>(kills) : 0.0;
  layers.set("fault.recovery_us",
             us(static_cast<double>(wire_faults.recovery_ns)) * per_kill);
  layers.set("fault.spikes_lost", static_cast<double>(wire_faults.spikes_lost));
  layers.set("fault.spikes_lost_per_kill",
             static_cast<double>(wire_faults.spikes_lost) * per_kill);
  const std::vector<Stage> stages =
      lifecycle_layers(serial_runs, sharded_runs, layers);
  layers.emit(result);

  // Layer table: in-process stage p50s against the wire session p50; what
  // is left is transport and queueing, floored by the idle ping RTT.
  const double e2e_us = e2e.session_p50_ms * 1e3;
  print_layer_table(opt.workload + " (wire session)", e2e_us, stages,
                    "net+queue");
  std::printf("  net+queue floor: idle ping RTT %.2f us; embedded server "
              "calls p50 open %.2f run %.2f wait %.2f drain %.2f close %.2f "
              "us, embedded TTFS %.2f us\n",
              us(median(rtt_ns)), us(median(t_open)), us(median(t_run)),
              us(median(t_wait)), us(median(t_drain)), us(median(t_close)),
              us(median(t_ttfs)));
  const double core_map_sim = median_of(serial_runs, [](const Lifecycle& r) {
    return r.system_ns + r.load_ns + r.run_ns;
  });
  const double load_share = median_of(serial_runs, [](const Lifecycle& r) {
    return r.load_ns / (r.network_ns + r.system_ns + r.load_ns + r.run_ns +
                        r.drain_ns);
  });
  std::printf("  core+map+sim = %.1f%% of the session p50 (chain bar: < 60%%); "
              "map.load = %.1f%% of in-process compute (described bar: >= "
              "70%%)\n",
              e2e_us > 0 ? 100.0 * us(core_map_sim) / e2e_us : 0.0,
              100.0 * load_share);
  if (!opt.spans_path.empty() && !spans.write(opt.spans_path)) {
    std::printf("could not write spans to %s\n", opt.spans_path.c_str());
  }
}

}  // namespace perfbench
