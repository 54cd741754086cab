// plant_churn: the 50-switch mesh plant with 4,996 TCT and 4 ECT streams.
// First the plant is commissioned — the admission service's initial
// portfolio solve, validate, compileProgram and compileFilters — then one
// closed-loop client issues requests, each waiting for the previous
// decision: adds, removes, modifies, flapping re-adds that revisit cached
// states, and a recurring request no schedule can meet.  One operation is
// the commissioning, then each request; a correct rejection counts as
// done.  Requests continue in blocks of 100 until at least 1,000 were
// decided and the run's time, counted from the start of commissioning, is
// up.  Set-up is everything before the first request: generating the plant
// and commissioning it.
//
// The plant and the portfolio's seed are fixed, so every run commissions
// the same schedule; the run seed drives the client's requests.  The full
// re-solves that set the tail take as long as the plant makes them: with
// the plant drawn from the run seed, runs at the same host speed read
// tails up to 50 % apart.
#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "sched/expand.h"
#include "sched/validate.h"

namespace pb {

using namespace etsn;

namespace {

constexpr int kSwitches = 50;
constexpr int kTct = 4996;
constexpr int kEct = 4;
constexpr int kMinRequests = 1000;
constexpr int kBlock = 100;
constexpr int kValidateEvery = 250;
constexpr std::uint64_t kPlantSeed = 1;  // the plant and the portfolio
const char* const kRungs[] = {"cache", "delta", "ripup", "smt", "resolve"};
// Request kinds after the two impossible requests of each block of 50:
// A add, R remove, M modify, E re-add a retired stream, F/f/G/f a flapping
// device (add, remove, add again, remove again).
constexpr char kPattern[] = "AARMAFfGfERA";

struct Plant {
  net::Topology topo;
  std::vector<net::StreamSpec> base;
  std::vector<net::NodeId> devices;
};

Plant makePlant(std::uint64_t seed) {
  Plant p;
  p.topo = workload::makeScaledTopology(workload::TopologyKind::Mesh, kSwitches,
                                        2);
  for (net::NodeId n = 0; n < p.topo.numNodes(); ++n) {
    if (p.topo.node(n).kind == net::NodeKind::Device) p.devices.push_back(n);
  }
  workload::TctWorkload w;
  w.numStreams = kTct;
  w.periods = {milliseconds(5), milliseconds(10), milliseconds(20)};
  w.networkLoad = 0.2;
  w.numSharing = kTct / 2;
  w.seed = seed;
  p.base = workload::generateTct(p.topo, w);
  workload::EctWorkload e;
  e.numStreams = kEct;
  e.seed = seed + 1;
  for (net::StreamSpec& s : workload::generateEct(p.topo, e)) {
    p.base.push_back(std::move(s));
  }
  return p;
}

/// The closed-loop client.  It draws its next request from the seed and
/// from the live set it has replayed from earlier verdicts, so the same
/// seed gives the same request sequence.
class Client {
 public:
  Client(const Plant& plant, std::uint64_t seed)
      : plant_(plant), rng_(Rng::deriveSeed(seed, 0xc4u)) {
    for (const net::StreamSpec& s : plant.base) replayed_[s.name] = s;
    impossible_.name = "impossible";
    impossible_.src = plant.devices.front();
    impossible_.dst = plant.devices.back();
    impossible_.period = microseconds(500);
    impossible_.maxLatency = microseconds(500);
    impossible_.payloadBytes = 4500;  // three fragments every 500 us
    impossible_.priority = 1;
  }

  /// The request at position `i`.  The kinds follow a fixed pattern per
  /// block of 50 (so every run, whatever its seed, has the same mix); the
  /// seed draws their contents: endpoints, periods, payloads and which live
  /// stream a remove or modify hits.
  sched::AdmissionRequest next(std::int64_t i) {
    const int slot = static_cast<int>(i % 50);
    if (slot < 2) {
      // A flapping requester nothing can satisfy: the repeat meets the
      // same state and is answered from the cache.
      return sched::addRequest(impossible_);
    }
    switch (kPattern[(slot - 2) % 12]) {
      case 'R':
        if (churn_.size() > 4) return sched::removeRequest(takeChurn());
        break;
      case 'M':
        if (!churn_.empty()) {
          net::StreamSpec m = replayed_.at(pickChurn());
          m.payloadBytes = static_cast<int>(rng_.uniformInt(200, 800));
          return sched::modifyRequest(std::move(m));
        }
        break;
      case 'E': {
        while (!retired_.empty() && replayed_.count(retired_.back().name)) {
          retired_.pop_back();
        }
        if (!retired_.empty()) {  // revisits a prior state
          net::StreamSpec r = retired_.back();
          retired_.pop_back();
          return sched::addRequest(std::move(r));
        }
        break;
      }
      case 'F':  // a flapping device powers up ...
        flap_ = freshSpec();
        return sched::addRequest(flap_);
      case 'f':  // ... and down; the second pair replays cached deltas
        if (replayed_.count(flap_.name)) return sched::removeRequest(flap_.name);
        break;
      case 'G':
        if (!replayed_.count(flap_.name)) return sched::addRequest(flap_);
        break;
      default:
        break;
    }
    return sched::addRequest(freshSpec());  // also when a kind cannot apply
  }

  /// Replays a verdict into the client's view of the live set.
  void apply(const sched::AdmissionRequest& r, bool admitted) {
    if (!admitted) return;
    using Op = sched::AdmissionRequest::Op;
    if (r.op == Op::Remove || r.op == Op::Modify) {
      const std::string gone = r.name.empty() ? r.spec.name : r.name;
      replayed_.erase(gone);
      churn_.erase(std::remove(churn_.begin(), churn_.end(), gone),
                   churn_.end());
    }
    if (r.op == Op::Add || r.op == Op::Modify) {
      replayed_[r.spec.name] = r.spec;
      churn_.push_back(r.spec.name);
    }
  }

  const std::map<std::string, net::StreamSpec>& replayed() const {
    return replayed_;
  }
  const net::StreamSpec& impossible() const { return impossible_; }

 private:
  net::StreamSpec freshSpec() {
    net::StreamSpec s;
    s.name = "churn" + std::to_string(fresh_++);
    s.src = rng_.pick(plant_.devices);
    do {
      s.dst = rng_.pick(plant_.devices);
    } while (s.dst == s.src);
    s.period = milliseconds(5 * (1LL << rng_.uniformInt(0, 2)));
    s.maxLatency = s.period;
    s.payloadBytes = static_cast<int>(rng_.uniformInt(200, 800));
    s.share = rng_.uniformInt(0, 1) == 1;
    // Explicit priorities keep the canonical state revisitable.
    s.priority = static_cast<int>(s.share ? 4 + rng_.uniformInt(0, 2)
                                          : 1 + rng_.uniformInt(0, 2));
    return s;
  }
  std::string pickChurn() {
    return churn_[static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(churn_.size()) - 1))];
  }
  std::string takeChurn() {
    const std::string name = pickChurn();
    retired_.push_back(replayed_.at(name));
    return name;
  }

  const Plant& plant_;
  Rng rng_;
  int fresh_ = 0;
  std::map<std::string, net::StreamSpec> replayed_;  // live, from verdicts
  std::vector<std::string> churn_;  // live churn streams (removable)
  std::vector<net::StreamSpec> retired_;
  net::StreamSpec flap_;
  net::StreamSpec impossible_;
};

sched::AdmissionDecision decide(AdmissionService& svc,
                                const sched::AdmissionRequest& r) {
  using Op = sched::AdmissionRequest::Op;
  switch (r.op) {
    case Op::Add:
      return svc.add(r.spec);
    case Op::Remove:
      return svc.remove(r.name);
    default:
      return svc.modify(r.spec, r.name);
  }
}

/// The three portfolio engines, each alone and raced, on the plant's
/// expanded streams (traced run only).
void timeEngines(const Plant& plant, const sched::SchedulerConfig& config,
                 const sched::AdmissionOptions& opts, Tracer& tracer) {
  sched::Expansion exp;
  {
    Span s(tracer, "sched.expand");
    exp = sched::expandStreams(plant.topo, plant.base, config);
  }
  {
    Span s(tracer, "sched.portfolio");
    sched::runPortfolio(plant.topo, exp.streams, config, opts.portfolio);
  }
  {
    Span s(tracer, "sched.greedy");
    sched::runGreedy(plant.topo, exp.streams, config, opts.portfolio);
  }
  {
    Span s(tracer, "sched.tabu");
    sched::runTabu(plant.topo, exp.streams, config, opts.portfolio);
  }
  {
    Span s(tracer, "sched.dnc");
    sched::runDnc(plant.topo, exp.streams, config, opts.portfolio);
  }
}

}  // namespace

void runPlantChurn(const Options& opt, Tracer& tracer, Outcome& out) {
  Plant plant;
  {
    Span s(tracer, "workload.generate");
    plant = makePlant(kPlantSeed);
  }

  sched::SchedulerConfig config;
  config.numProbabilistic = 4;
  sched::AdmissionOptions opts;
  opts.portfolio.seed = kPlantSeed;
  opts.portfolio.threads =
      std::max(1, std::min(3, static_cast<int>(std::thread::hardware_concurrency())));

  if (opt.trace) timeEngines(plant, config, opts, tracer);

  // --- commissioning: specs to a validated schedule plus GCLs and PSFP ---
  out.attempted = 1;
  const auto c0 = Clock::now();
  std::unique_ptr<AdmissionService> svc;
  {
    Span s(tracer, "etsn.AdmissionService");
    svc = std::make_unique<AdmissionService>(plant.topo, plant.base, config,
                                             opts);
  }
  if (!svc->feasible()) {
    out.failed = 1;
    out.expect(false, "the base plant is not schedulable");
    return;
  }
  const net::Topology& topo = svc->topology();
  sched::MethodSchedule ms;
  ms.schedule = svc->schedule();
  std::vector<sched::Violation> violations;
  {
    Span s(tracer, "sched.validate");
    violations = sched::validate(topo, ms.schedule);
  }
  sched::NetworkProgram program;
  {
    Span s(tracer, "sched.compileProgram");
    program = sched::compileProgram(topo, ms);
  }
  net::PsfpConfig filters;
  {
    Span s(tracer, "net.compileFilters");
    filters = net::compileFilters(topo, ms);
  }
  const double commission = secondsSince(c0);
  const double setup = secondsSince(opt.start);
  {
    std::vector<std::string> errs = {
        violations.empty() ? "" : "commissioned schedule violates " +
                                      violations.front().constraint,
        checkGclExact(topo, ms.schedule, program),
        checkPsfpCovers(topo, ms.schedule, filters)};
    for (const std::string& e : errs) {
      if (!e.empty()) out.expect(false, "commissioning: " + e);
    }
    out.failed += out.errorCount > 0 ? 1 : 0;
  }
  long long gclEntries = 0;
  for (const net::Gcl& g : program.linkGcl) {
    gclEntries += static_cast<long long>(g.entries().size());
  }
  const long long gclWindows = gclWindowCount(ms.schedule);

  // --- churn: one closed-loop client ---
  Client client(plant, opt.seed);
  std::vector<double> latencies;
  std::map<std::string, std::vector<double>> byRung;
  long long rejects = 0, moved = 0;
  double decisionSeconds = 0;
  while (latencies.size() < static_cast<std::size_t>(kMinRequests) ||
         secondsSince(c0) < opt.seconds) {
    for (int i = 0; i < kBlock; ++i) {
      const sched::AdmissionRequest req =
          client.next(static_cast<std::int64_t>(latencies.size()));
      sched::AdmissionDecision d;
      const auto t0 = Clock::now();
      {
        Span s(tracer, "etsn.AdmissionService.request");
        d = decide(*svc, req);
      }
      const double dt = secondsSince(t0);
      decisionSeconds += dt;
      latencies.push_back(dt);
      byRung[d.rung].push_back(dt);
      moved += d.movedStreams;
      ++out.attempted;
      client.apply(req, d.admitted);
      bool ok = d.rung != "invalid";
      if (!ok) out.expect(false, "request rejected as invalid: " + d.detail);
      if (req.spec.name == client.impossible().name &&
          req.op == sched::AdmissionRequest::Op::Add) {
        const std::string e =
            d.admitted ? "the impossible request was admitted"
                       : checkRejectionJustified(topo, req.spec);
        if (!e.empty()) out.expect(false, e);
        ok = ok && e.empty();
      }
      rejects += d.admitted ? 0 : 1;
      out.failed += ok ? 0 : 1;
      if (latencies.size() % kValidateEvery == 0) {
        const std::string e = checkValid(topo, svc->schedule());
        out.expect(e.empty(), "after request " +
                                  std::to_string(latencies.size()) + ": " + e);
      }
    }
  }
  {
    const sched::Schedule final = svc->schedule();
    const std::string v = checkValid(topo, final);
    out.expect(v.empty(), "final schedule: " + v);
    const std::string e = checkSpecSet(final.specs, client.replayed());
    out.expect(e.empty(), e);
  }

  const double p50 = nearestRank(latencies, 50) * 1e3;
  const double p99 = nearestRank(latencies, 99) * 1e3;
  const double tailMs = tail(latencies) * 1e3;
  const double perSecond =
      static_cast<double>(latencies.size()) / decisionSeconds;
  out.endToEnd = {{"setup_s", setup, "s"},
                  {"wall_s", commission, "s"},
                  {"op_p50_ms", p50, "ms"},
                  {"op_tail_ms", tailMs, "ms"}};
  const sched::AdmissionCounters& c = svc->counters();
  out.named = {{"commission_s", commission, "s"},
               {"admit_p50_ms", p50, "ms"},
               {"admit_p99_ms", p99, "ms"},
               {"admit_per_s", perSecond, "1/s"},
               {"requests", static_cast<double>(latencies.size()), "count"},
               {"rejects", static_cast<double>(rejects), "count"},
               {"cache_hits", static_cast<double>(c.cacheHits), "count"}};
  for (const auto& [rung, v] : byRung) {
    out.named.push_back({"decided_by." + rung, static_cast<double>(v.size()),
                         "count"});
  }

  if (!opt.trace) return;
  for (const char* rung : kRungs) {
    const std::string base = std::string("sched.admission.") + rung;
    const auto it = byRung.find(rung);
    const std::vector<double> v =
        it == byRung.end() ? std::vector<double>{} : it->second;
    out.layer(base + ".count", static_cast<double>(v.size()), "count");
    out.layer(base + ".p50_ms", nearestRank(v, 50) * 1e3, "ms");
  }
  out.layer("sched.admission.cache_hit_ratio",
            c.requests > 0 ? static_cast<double>(c.cacheHits) /
                                 static_cast<double>(c.requests)
                           : 0,
            "ratio");
  out.layer("sched.admission.moved_streams", static_cast<double>(moved),
            "count");
  out.layer("sched.expand_s", tracer.total("sched.expand"), "s");
  out.layer("sched.validate_s", tracer.total("sched.validate"), "s");
  out.layer("sched.portfolio_s", tracer.total("sched.portfolio"), "s");
  out.layer("sched.greedy_s", tracer.total("sched.greedy"), "s");
  out.layer("sched.tabu_s", tracer.total("sched.tabu"), "s");
  out.layer("sched.dnc_s", tracer.total("sched.dnc"), "s");
  out.layer("sched.compile_program_s", tracer.total("sched.compileProgram"),
            "s");
  out.layer("net.gcl_entries", static_cast<double>(gclEntries), "count");
  out.layer("net.gcl_windows", static_cast<double>(gclWindows), "count");
  out.layer("net.psfp_compile_s", tracer.total("net.compileFilters"), "s");
  out.layer("workload.generate_s", tracer.total("workload.generate"), "s");
}

}  // namespace pb
