// serve-mix: request -> response through Dispatcher::HandleSync.
//
// Set-up opens 48 sessions of 128 sinks (each an NN-merge build plus a cold
// solve). The session cache keeps at most 16 resident. Two client threads
// each own a disjoint half of the sessions and run a closed loop of a
// fixed number of requests: send one, wait for the reply, check it. Each
// client visits its sessions in one seeded order, the same every cycle, so
// between two visits to a session the clients touch every other session:
// with 16 resident, every visit restores its session from disk and evicts
// another. Dispatcher jobs = 2, so at most four threads work at once; on
// machines with fewer than four hardware threads both counts shrink, so the
// workload never runs more threads than the machine has.
//
// Traffic: one visit sends the request sequence of the repo's own serve
// transcript, examples/serve_demo.jsonl: `solve`, then one `eco_edit`,
// then `query tree=true`. The edit script has the shape bench/serve_load
// sends: a sink move of up to 15 units plus a window edit of another sink
// to [U(0.85, 0.95), U(1.2, 1.3)] radius units, on sessions opened with
// window [0.9, 1.25] as there. A third of the requests are writes, two
// thirds reads. The restore lands on the visit's first request, so the
// three request kinds form three latency tiers of equal size and p50 sits
// inside the middle one. JSON, protocol, the checkpoint codec,
// spill/restore and the strand pool do most of the work; the LP does
// little.
//
// Check: every response must be ok with solver status OK, and at the end
// each session's served cost must equal, bitwise, that of a twin
// EcoSession opened from the same request and driven directly with the
// same edits (evict/restore == live). Twins are built after the timed
// loop, one at a time on each of up to four check threads (never more than
// the hardware threads). peak_rss_mb is read before the check starts.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <latch>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "eco/checkpoint.h"
#include "eco/eco_session.h"
#include "eco/edit_script.h"
#include "serve/checkpoint_codec.h"
#include "serve/dispatcher.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "topo/nn_merge.h"

namespace perfbench {
namespace {

using namespace lubt;

constexpr int kSessions = 48;
constexpr int kSinks = 128;
constexpr int kMaxResident = 16;
// The sessions' instances are fixed, as in cold-solve: the seed drives the
// visit order and the edits.
constexpr std::uint64_t kFirstInstanceSeed = 5501;
// Edit shape of bench/serve_load.
constexpr double kMoveStep = 15.0;
constexpr double kWindowLo[2] = {0.85, 0.95};
constexpr double kWindowHi[2] = {1.2, 1.3};
constexpr double kOpenWindow[2] = {0.9, 1.25};
constexpr double kDie = 1000.0;
// Requests of one visit, in examples/serve_demo.jsonl order.
enum class OpKind { kSolve, kEdit, kQuery };
constexpr OpKind kVisit[] = {OpKind::kSolve, OpKind::kEdit, OpKind::kQuery};
constexpr int kVisitRequests = 3;
constexpr int kReplaySessions = 8;
constexpr int kReplayRepeats = 3;
// One visit per client on the reference machine.
constexpr double kNominalVisitSeconds = 0.045;

std::string SessionName(int s) { return "s" + std::to_string(s); }

std::string OpenPayload(int s, const SinkSet& set) {
  Json req = Json::MakeObject();
  req.Set("op", Json::MakeString("open_session"));
  req.Set("session", Json::MakeString(SessionName(s)));
  Json sinks = Json::MakeArray();
  for (const Point& p : set.sinks) {
    Json pt = Json::MakeArray();
    pt.Append(Json::MakeNumber(p.x));
    pt.Append(Json::MakeNumber(p.y));
    sinks.Append(std::move(pt));
  }
  req.Set("sinks", std::move(sinks));
  Json src = Json::MakeArray();
  src.Append(Json::MakeNumber(set.source->x));
  src.Append(Json::MakeNumber(set.source->y));
  req.Set("source", std::move(src));
  Json window = Json::MakeArray();
  window.Append(Json::MakeNumber(kOpenWindow[0]));
  window.Append(Json::MakeNumber(kOpenWindow[1]));
  req.Set("window", std::move(window));
  return req.Dump();
}

std::string SessionPayload(const char* op, int s) {
  Json req = Json::MakeObject();
  req.Set("op", Json::MakeString(op));
  req.Set("session", Json::MakeString(SessionName(s)));
  if (std::strcmp(op, "query") == 0) req.Set("tree", Json::MakeBool(true));
  return req.Dump();
}

std::string EditPayload(int s, const std::vector<EcoEdit>& edits) {
  Json req = Json::MakeObject();
  req.Set("op", Json::MakeString("eco_edit"));
  req.Set("session", Json::MakeString(SessionName(s)));
  req.Set("script", Json::MakeString(FormatEditScript(edits)));
  return req.Dump();
}

// ok:true, and a solver status of OK when the result carries one.
bool ResponseOk(const Result<Json>& resp, std::string* why) {
  if (!resp.ok() || !resp->IsObject()) {
    *why = "unparsable response";
    return false;
  }
  const Json* ok = resp->Find("ok");
  if (ok == nullptr || !ok->IsBool() || !ok->AsBool()) {
    *why = "ok:false " + resp->Dump();
    return false;
  }
  const Json* result = resp->Find("result");
  if (result == nullptr) return true;
  if (const Json* status = result->Find("status"); status != nullptr) {
    if (!status->IsString() || status->AsString() != "OK") {
      *why = "solver status " + result->Dump();
      return false;
    }
  }
  return true;
}

double ResultNumber(const Json& resp, const char* key) {
  const Json* result = resp.Find("result");
  const Json* v = result != nullptr ? result->Find(key) : nullptr;
  return v != nullptr && v->IsNumber() ? v->AsNumber() : -1.0;
}

const char* OpSpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kEdit:
      return "serve.eco_edit";
    case OpKind::kQuery:
      return "serve.query";
    case OpKind::kSolve:
      return "serve.solve";
  }
  return "serve.unknown";
}

struct ClientLog {
  std::vector<double> op_ms;
  std::vector<std::pair<int, std::string>> edits;  // (session, payload)
  std::string sample_query_response;
  long long checked = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  Clock::time_point end;
};

struct Client {
  std::vector<int> sessions;
  std::vector<std::vector<Point>> points;  // tracked sink positions
  std::uint64_t seed = 0;
};

// Removes the spill directory however the run ends.
struct SpillDir {
  std::string path;
  ~SpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void RunClient(Dispatcher* dispatcher, Client* client, Tracer* tracer,
               int visits, std::atomic<long long>* ids, ClientLog* log) {
  Rng rng(client->seed);
  const int owned = static_cast<int>(client->sessions.size());
  const std::vector<int> order = Permutation(owned, &rng);
  const std::size_t requests =
      static_cast<std::size_t>(visits) * kVisitRequests;
  for (std::size_t step = 0; step < requests; ++step) {
    const int local = order[(step / kVisitRequests) % order.size()];
    const int s = client->sessions[static_cast<std::size_t>(local)];
    const OpKind kind = kVisit[step % kVisitRequests];
    std::string payload;
    if (kind == OpKind::kEdit) {
      std::vector<Point>& pts = client->points[static_cast<std::size_t>(local)];
      const int last = static_cast<int>(pts.size()) - 1;
      EcoEdit move;
      move.kind = EcoEditKind::kMoveSink;
      move.sink = rng.UniformInt(0, last);
      Point& p = pts[static_cast<std::size_t>(move.sink)];
      p.x = std::clamp(p.x + rng.Uniform(-kMoveStep, kMoveStep), 0.0, kDie);
      p.y = std::clamp(p.y + rng.Uniform(-kMoveStep, kMoveStep), 0.0, kDie);
      move.point = p;
      EcoEdit window;
      window.kind = EcoEditKind::kSetBounds;
      window.sink = rng.UniformInt(0, last);
      window.lo = rng.Uniform(kWindowLo[0], kWindowLo[1]);
      window.hi = rng.Uniform(kWindowHi[0], kWindowHi[1]);
      payload = EditPayload(s, {move, window});
      log->edits.emplace_back(s, payload);
    } else {
      payload = SessionPayload(kind == OpKind::kQuery ? "query" : "solve", s);
    }
    const long long op = ids->fetch_add(1);
    const Clock::time_point start = Clock::now();
    Result<Json> parsed = Status::Internal("unset");
    std::string response;
    {
      ScopedSpan op_span(tracer, "op", op);
      {
        ScopedSpan span(tracer, OpSpanName(kind), op);
        response = dispatcher->HandleSync(payload);
      }
      ScopedSpan span(tracer, "serve.client_parse", op);
      parsed = Json::Parse(response);
    }
    log->op_ms.push_back(SecondsSince(start) * 1e3);
    std::string why;
    bool ok = ResponseOk(parsed, &why);
    if (ok && kind == OpKind::kQuery) {
      const Json* result = parsed->Find("result");
      const Json* tree = result != nullptr ? result->Find("tree") : nullptr;
      ok = tree != nullptr && tree->IsString() && !tree->AsString().empty();
      if (!ok) why = "query without tree";
      if (ok && log->sample_query_response.empty()) {
        log->sample_query_response = response;
      }
    }
    ++log->checked;
    if (!ok) {
      ++log->failed;
      if (log->failures.size() < 4) {
        log->failures.push_back(SessionName(s) + ": " + why);
      }
    }
  }
  log->end = Clock::now();
}

Result<Json> StatsOf(Dispatcher* dispatcher) {
  return Json::Parse(dispatcher->HandleSync("{\"op\":\"stats\"}"));
}

double ReplayMedianMs(int repeats, const std::function<void()>& body) {
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    body();
    ms.push_back(SecondsSince(start) * 1e3);
  }
  return Median(ms);
}

// A twin of one served session: opened directly from the session's open
// request, exactly as the dispatcher opens it, then driven with the
// session's eco_edit requests in order. Returns null (and why) on failure.
std::unique_ptr<EcoSession> DriveTwin(const std::string& open_payload,
                                      const std::vector<std::string>& edits,
                                      std::string* why) {
  Result<ServeRequest> open = ParseServeRequest(open_payload);
  if (!open.ok()) {
    *why = "open parse: " + open.status().ToString();
    return nullptr;
  }
  Topology topo = NnMergeTopology(open->set.sinks, open->set.source);
  Result<std::unique_ptr<EcoSession>> twin =
      EcoSession::Create(open->set, open->bounds, std::move(topo), {});
  if (!twin.ok()) {
    *why = "create: " + twin.status().ToString();
    return nullptr;
  }
  for (const std::string& payload : edits) {
    Result<ServeRequest> req = ParseServeRequest(payload);
    bool ok = req.ok();
    if (ok) {
      std::vector<EcoEdit> scaled;
      for (const EcoEdit& e : req->edits) {
        scaled.push_back(ScaleEditWindows(e, (*twin)->InitialRadius()));
      }
      Result<std::vector<EcoSolveInfo>> infos = (*twin)->ApplyAll(scaled);
      ok = infos.ok() && !infos->empty() && infos->back().ok();
    }
    if (!ok) {
      *why = "edit failed";
      return nullptr;
    }
  }
  return std::move(*twin);
}

// Outcome of one session's evict/restore == live check.
struct TwinCheck {
  bool built = false;
  bool served_ok = false;
  double served = -1.0;
  double cost = 0.0;
  std::string why;
  std::optional<EcoCheckpoint> checkpoint;  // traced run, first sessions
};

// Replay timings of the serve layers (checkpoint codec, restore) on real
// session states.
struct ServeReplay {
  std::vector<double> encode_ms, decode_ms, restore_ms, bytes;

  // Time encode, decode and restore of `ck`; false if either fails.
  bool Add(const EcoCheckpoint& ck) {
    std::string text;
    encode_ms.push_back(
        ReplayMedianMs(kReplayRepeats, [&] { text = EncodeCheckpoint(ck); }));
    bytes.push_back(static_cast<double>(text.size()));
    Result<EcoCheckpoint> decoded = Status::Internal("unset");
    decode_ms.push_back(ReplayMedianMs(
        kReplayRepeats, [&] { decoded = DecodeCheckpoint(text); }));
    if (!decoded.ok()) return false;
    bool restored = true;
    restore_ms.push_back(ReplayMedianMs(kReplayRepeats, [&] {
      restored = restored && EcoSession::Restore(*decoded).ok();
    }));
    return restored;
  }
};

}  // namespace

void RunServeMix(const RunConfig& config, Tracer* tracer,
                 WorkloadResult* out) {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const int clients = std::clamp(hw / 2, 1, 2);
  const int jobs = clients;

  const SpillDir spill{config.out_dir + "/spill-" +
                       std::to_string(::getpid())};
  std::error_code ec;
  std::filesystem::remove_all(spill.path, ec);
  std::filesystem::create_directories(spill.path, ec);
  if (ec) {
    out->Check(false, "cannot create spill directory " + spill.path);
    return;
  }

  DispatcherOptions options;
  options.jobs = jobs;
  options.cache.max_resident = kMaxResident;
  options.cache.spill_dir = spill.path;
  auto dispatcher = std::make_unique<Dispatcher>(options);

  // Set-up: open every session through the dispatcher.
  SetupTimer setup;
  std::vector<std::string> open_payloads;
  for (int s = 0; s < kSessions; ++s) {
    const SinkSet set = UniformInstance(
        kSinks, kFirstInstanceSeed + static_cast<std::uint64_t>(s));
    open_payloads.push_back(OpenPayload(s, set));
    const Clock::time_point start = Clock::now();
    const Result<Json> resp =
        Json::Parse(dispatcher->HandleSync(open_payloads.back()));
    setup.AddUnit(SecondsSince(start));
    std::string why;
    out->Check(ResponseOk(resp, &why), SessionName(s) + " open: " + why);
  }
  if (out->failed > 0) return;

  // Each client starts from the sink positions of its sessions' open
  // requests and tracks them through its moves.
  std::vector<Client> owners(static_cast<std::size_t>(clients));
  for (int s = 0; s < kSessions; ++s) {
    Result<ServeRequest> req =
        ParseServeRequest(open_payloads[static_cast<std::size_t>(s)]);
    if (!req.ok()) {
      out->Check(false, "open parse: " + req.status().ToString());
      return;
    }
    Client& c = owners[static_cast<std::size_t>(s % clients)];
    c.sessions.push_back(s);
    c.points.push_back(req->set.sinks);
  }
  for (int c = 0; c < clients; ++c) {
    owners[static_cast<std::size_t>(c)].seed =
        Mix(config.seed, 0xc1 + static_cast<std::uint64_t>(c));
  }

  const Result<Json> stats_before = StatsOf(dispatcher.get());
  const int visits =
      PassesFor(config.seconds, kNominalVisitSeconds, kVisitRequests);
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  std::atomic<long long> ids{0};
  // The clients read t0 after the latch releases them, which orders the
  // read after this thread's write.
  Clock::time_point t0;
  {
    std::latch ready(clients + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ready.arrive_and_wait();
        RunClient(dispatcher.get(), &owners[static_cast<std::size_t>(c)],
                  tracer, visits, &ids,
                  &logs[static_cast<std::size_t>(c)]);
      });
    }
    t0 = Clock::now();
    ready.arrive_and_wait();
    for (std::thread& t : threads) t.join();
  }
  const Result<Json> stats_after = StatsOf(dispatcher.get());
  // Peak memory of set-up and the timed loop; the twin check below adds
  // its own.
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> op_ms;
  double timed = 0.0;
  for (const ClientLog& log : logs) {
    op_ms.insert(op_ms.end(), log.op_ms.begin(), log.op_ms.end());
    timed = std::max(timed,
                     std::chrono::duration<double>(log.end - t0).count());
    out->attempted += log.checked;
    out->failed += log.failed;
    for (const std::string& f : log.failures) {
      if (out->failures.size() < 8) out->failures.push_back(f);
    }
  }

  // Evict/restore == live, one session per check thread at a time: open
  // its twin from the same request (outside any timing), replay the
  // session's edits on it and compare the served cost with the twin's,
  // bitwise. The traced run also replays the serve layers,
  // single-threaded, on the first twins' final states.
  std::vector<std::vector<std::string>> edits(
      static_cast<std::size_t>(kSessions));
  for (const ClientLog& log : logs) {
    for (const auto& [s, payload] : log.edits) {
      edits[static_cast<std::size_t>(s)].push_back(payload);
    }
  }
  std::vector<TwinCheck> checks(static_cast<std::size_t>(kSessions));
  {
    const int checkers = std::clamp(hw, 1, 4);
    std::vector<std::thread> threads;
    for (int c = 0; c < checkers; ++c) {
      threads.emplace_back([&, c, checkers] {
        for (int s = c; s < kSessions; s += checkers) {
          TwinCheck& check = checks[static_cast<std::size_t>(s)];
          const std::unique_ptr<EcoSession> twin =
              DriveTwin(open_payloads[static_cast<std::size_t>(s)],
                        edits[static_cast<std::size_t>(s)], &check.why);
          if (twin == nullptr) continue;
          check.built = true;
          const Result<Json> resp =
              Json::Parse(dispatcher->HandleSync(SessionPayload("solve", s)));
          check.served_ok = ResponseOk(resp, &check.why);
          check.served = check.served_ok ? ResultNumber(*resp, "cost") : -1.0;
          check.cost = twin->Last().cost;
          if (config.trace && s < kReplaySessions) {
            check.checkpoint = twin->Checkpoint();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ServeReplay replay;
  double served_total = 0.0;
  double twin_total = 0.0;
  for (int s = 0; s < kSessions; ++s) {
    const TwinCheck& check = checks[static_cast<std::size_t>(s)];
    if (!check.built) {
      out->Check(false, SessionName(s) + ": twin " + check.why);
      continue;
    }
    served_total += check.served;
    twin_total += check.cost;
    out->Check(check.served_ok && check.served == check.cost,
               SessionName(s) + ": served cost " + Num(check.served) +
                   " != twin cost " + Num(check.cost) + " " + check.why);
    if (check.checkpoint.has_value()) {
      out->Check(replay.Add(*check.checkpoint),
                 SessionName(s) + ": checkpoint decode or restore failed");
    }
  }

  const auto stat = [](const Result<Json>& resp, const char* key) {
    return resp.ok() ? ResultNumber(*resp, key) : 0.0;
  };
  const double evictions =
      stat(stats_after, "evictions") - stat(stats_before, "evictions");
  const double restores =
      stat(stats_after, "restores") - stat(stats_before, "restores");
  out->Check(evictions > 0 && restores > 0,
             "the cache never evicted and restored during the timed loop");
  out->Info("threads", std::to_string(clients) + " clients + " +
                           std::to_string(jobs) + " dispatcher jobs");
  out->Info("sessions", std::to_string(kSessions) + " x " +
                            std::to_string(kSinks) + " sinks, " +
                            std::to_string(kMaxResident) + " resident");
  out->Info("cache", "evictions " + Num(evictions) + ", restores " +
                         Num(restores));

  if (!config.trace) {
    AddLoopMetrics(op_ms, timed, setup, peak_rss_mb, out);
    out->Add("cost_ratio", twin_total > 0.0 ? served_total / twin_total : 0.0,
             "ratio");
  } else {
    const std::vector<Span> spans = tracer->Spans();
    const auto span_p50 = [&spans](const std::string& name) {
      std::vector<double> ms;
      for (const Span& s : spans) {
        if (s.name == name) ms.push_back((s.end - s.start) * 1e3);
      }
      return Median(ms);
    };
    out->Add("serve.eco_edit_ms", span_p50("serve.eco_edit"), "ms");
    out->Add("serve.query_ms", span_p50("serve.query"), "ms");
    out->Add("serve.solve_ms", span_p50("serve.solve"), "ms");
    out->Add("cache.evictions", evictions, "count");
    out->Add("cache.restores", restores, "count");
    out->Add("cache.restore_frac",
             op_ms.empty() ? 0.0 : restores / static_cast<double>(op_ms.size()),
             "ratio");

    std::string sample;
    for (const ClientLog& log : logs) {
      if (sample.empty()) sample = log.sample_query_response;
    }
    out->Add("serve.ckpt_encode_ms", Median(replay.encode_ms), "ms");
    out->Add("serve.ckpt_decode_ms", Median(replay.decode_ms), "ms");
    out->Add("serve.ckpt_bytes", Median(replay.bytes), "bytes");
    out->Add("eco.restore_ms", Median(replay.restore_ms), "ms");
    const double parse_ms =
        sample.empty()
            ? 0.0
            : ReplayMedianMs(5, [&] { (void)Json::Parse(sample); });
    out->Add("serve.json_parse_ms", parse_ms, "ms");
    out->Add("trace.coverage", Coverage(spans, "op"), "ratio");
    out->Add("trace.overhead_ms",
             op_ms.empty() ? 0.0
                           : tracer->BookkeepingSeconds() * 1e3 /
                                 static_cast<double>(op_ms.size()),
             "ms");
    out->Info("replay", "serve.ckpt_encode_ms serve.ckpt_decode_ms "
                        "serve.ckpt_bytes eco.restore_ms serve.json_parse_ms");
    out->Info("not_covered", "queue wait inside the dispatcher needs spans "
                             "inside the program");
    out->Info("trace_overhead", "span bookkeeping time per operation");
  }
}

}  // namespace perfbench
