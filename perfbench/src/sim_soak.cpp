// sim_soak: long simulations of schedules solved once, in set-up, by the
// paper's exact method (SMT).  Four scenarios drive the simulator's paths
// differently:
//   clean  — E-TSN forwarding with event traffic on the §VI-C line of four
//            switches;
//   avb    — the AVB baseline: event traffic through the credit-based
//            shaper in unallocated time (testbed);
//   police — PSFP ingress policing against a babbling event source, plus
//            Gilbert-Elliott burst loss on one edge link (testbed);
//   frer   — the dual-spine 802.1CB cell with one trunk killed and the gPTP
//            grandmaster killed mid-run.
// One operation is one scenario's simulate step: compileProgram (and the
// PSFP filters when policing), building the network, running it and
// summarising every stream.  Rounds of the four repeat until the run's
// time is up.  Set-up covers generating the scenarios, the four presolves
// and one reference run of the policing scenario without its faults.
//
// The stream structure and release phases are fixed, so set-up solves the
// same four SMT instances in every run (exact solve times swing with the
// phases); the run seed drives the simulations: loss draws, event-traffic
// arrivals and clock drift.
#include <algorithm>
#include <map>
#include <memory>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "sim/network.h"

namespace pb {

using namespace etsn;

namespace {

struct Scenario {
  std::string name;
  net::Topology topo;
  std::vector<net::StreamSpec> specs;
  sched::ScheduleOptions options;
  sim::SimConfig sim;
  bool police = false;
  std::shared_ptr<const sched::MethodSchedule> schedule;
};

struct RunResult {
  std::vector<sim::StreamRecord> records;
  std::vector<stats::Summary> summaries;
  sim::GptpStats gptp;
  std::vector<std::uint64_t> masters;  // per node, when gPTP ran
  std::int64_t events = 0;
  std::int64_t framesDelivered = 0;
  double seconds = 0;
};

/// TCT streams with a fixed structure — endpoint pairs and periods — and a
/// random release phase per stream drawn from `rng`; payloads are sized so
/// the busiest link carries `load`.
std::vector<net::StreamSpec> fixedTct(
    const net::Topology& topo,
    const std::vector<std::pair<net::NodeId, net::NodeId>>& pairs,
    const std::vector<TimeNs>& periods, double load, bool share, Rng& rng) {
  std::vector<int> perLink(static_cast<std::size_t>(topo.numLinks()), 0);
  std::vector<net::StreamSpec> specs;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    net::StreamSpec s;
    s.name = "tct" + std::to_string(i + 1);
    s.src = pairs[i].first;
    s.dst = pairs[i].second;
    s.period = periods[i % periods.size()];
    s.maxLatency = s.period;
    s.releaseOffset = microseconds(rng.uniformInt(0, s.period / kNsPerUs - 1));
    s.share = share;
    for (const net::LinkId l : topo.shortestPath(s.src, s.dst)) {
      ++perLink[static_cast<std::size_t>(l)];
    }
    specs.push_back(std::move(s));
  }
  const int busiest = *std::max_element(perLink.begin(), perLink.end());
  for (net::StreamSpec& s : specs) {
    s.payloadBytes = workload::payloadForRate(
        load * static_cast<double>(topo.link(0).bandwidthBps) / busiest,
        s.period);
  }
  return specs;
}

std::vector<Scenario> makeScenarios(std::uint64_t seed) {
  Rng rng(0x50a4u);  // release phases: the same in every run
  std::vector<Scenario> out;
  {
    Scenario s;
    s.name = "clean";
    s.topo = net::makeSimulationTopology();  // devices 0..11, 3 per switch
    std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
    for (int d = 0; d < 12; d += 2) pairs.push_back({d, (d + 7) % 12});
    s.specs = fixedTct(s.topo, pairs,
                       {milliseconds(5), milliseconds(10), milliseconds(20)},
                       0.3, true, rng);
    s.specs.push_back(workload::makeEct("ect", 0, 11, milliseconds(10), 1500));
    s.sim.duration = seconds(40);
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "avb";
    s.topo = net::makeTestbedTopology();
    s.specs = fixedTct(s.topo, {{0, 2}, {1, 2}, {0, 3}},
                       {milliseconds(4), milliseconds(8), milliseconds(16)},
                       0.35, true, rng);
    s.specs.push_back(workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
    s.options.method = sched::Method::AVB;
    s.sim.duration = seconds(80);
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "police";
    s.topo = net::makeTestbedTopology();
    // Non-shared TCT: the event queue never opens in their slots, so a
    // contained babbler cannot touch them.
    s.specs = fixedTct(s.topo, {{0, 2}, {1, 2}, {0, 3}},
                       {milliseconds(4), milliseconds(8), milliseconds(16)},
                       0.35, false, rng);
    s.specs.push_back(workload::makeEct("bab", 1, 3, milliseconds(16), 1500));
    s.police = true;
    s.sim.duration = seconds(4);
    s.sim.suppressEctTraffic = true;  // only the babble is event traffic
    s.sim.police.blockOnViolation = true;
    s.sim.police.quietPeriod = milliseconds(10);
    sim::BabblingSource b;
    b.ectIndex = 0;
    b.start = milliseconds(102);
    b.stop = s.sim.duration;
    b.interval = microseconds(10);
    s.sim.faults.babblers.push_back(b);
    sim::LossModel burst;  // edge link switch 2 -> D4, crossed by tct3
    burst.link = s.topo.linkBetween(5, 3);
    burst.pGoodToBad = 0.01;
    burst.pBadToGood = 0.2;
    burst.lossBad = 0.8;
    s.sim.faults.losses.push_back(burst);
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "frer";
    // T=0, L=1, A1=2, A2=3, B1=4, B2=5, one device per spine switch 6..9.
    s.topo = net::makeRedundantTopology(2, 1);
    net::StreamSpec crit;
    crit.name = "crit";
    crit.src = 0;
    crit.dst = 1;
    crit.period = milliseconds(4);
    crit.maxLatency = milliseconds(4);
    crit.payloadBytes = 1000;
    crit.redundancy = 2;
    s.specs.push_back(crit);
    for (const auto& [name, src, dst] :
         {std::tuple{"bgA", 6, 7}, std::tuple{"bgB", 8, 9}}) {
      net::StreamSpec bg;
      bg.name = name;
      bg.src = src;
      bg.dst = dst;
      bg.period = milliseconds(8);
      bg.maxLatency = milliseconds(8);
      bg.payloadBytes = 1000;
      bg.releaseOffset = microseconds(rng.uniformInt(0, 7999));
      s.specs.push_back(bg);
    }
    net::StreamSpec stop =
        workload::makeEct("stop", 0, 1, milliseconds(16), 1000);
    stop.redundancy = 2;
    s.specs.push_back(stop);
    s.sim.duration = seconds(400);
    s.sim.clockDriftPpbMax = 2000;
    s.sim.gptp.enabled = true;
    s.sim.gptp.candidates = {{2, 100, 6}, {4, 110, 6}};  // A1, then B1
    sim::GptpKill kill;
    kill.node = 2;
    kill.at = s.sim.duration / 2;
    s.sim.faults.gptpKills.push_back(kill);
    sim::LinkOutage trunk;  // spine A's trunk dies for good
    trunk.link = s.topo.linkBetween(2, 3);
    trunk.downAt = s.sim.duration / 4;
    trunk.upAt = trunk.downAt;
    s.sim.faults.outages.push_back(trunk);
    s.sim.frer.latentErrorPeriod = milliseconds(100);
    out.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].options.config.numProbabilistic = 4;
    out[i].options.engine = sched::Engine::Smt;
    out[i].sim.seed = Rng::deriveSeed(seed, i);
  }
  return out;
}

/// The simulate step of one scenario, timed per layer.
RunResult simulate(const Scenario& sc, const sim::SimConfig& config,
                   Tracer& tracer) {
  RunResult r;
  const auto t0 = Clock::now();
  sched::NetworkProgram program;
  {
    Span s(tracer, "sched.compileProgram");
    program = sched::compileProgram(sc.topo, *sc.schedule);
  }
  if (tracer.enabled()) {
    double entries = 0;
    for (const net::Gcl& g : program.linkGcl) {
      entries += static_cast<double>(g.entries().size());
    }
    tracer.count("net.gcl_entries", entries);
    tracer.count("net.gcl_windows",
                 static_cast<double>(gclWindowCount(sc.schedule->schedule)));
  }
  sim::SimConfig cfg = config;
  if (sc.police) {
    Span s(tracer, "net.compileFilters");
    cfg.police.enabled = true;
    cfg.police.filters = net::compileFilters(sc.topo, *sc.schedule);
  }
  std::unique_ptr<sim::Network> net;
  {
    Span s(tracer, "sim.build");
    net = std::make_unique<sim::Network>(sc.topo, program, cfg);
  }
  {
    Span s(tracer, ("sim.run." + sc.name).c_str());
    net->run();
  }
  {
    Span s(tracer, "stats.summarize");
    const sim::Recorder& rec = net->recorder();
    for (int i = 0; i < rec.numSpecs(); ++i) {
      r.summaries.push_back(stats::summarize(rec.record(i).latencies));
    }
  }
  r.seconds = secondsSince(t0);
  const sim::Recorder& rec = net->recorder();
  for (int i = 0; i < rec.numSpecs(); ++i) {
    r.records.push_back(rec.record(i));
    r.framesDelivered += rec.record(i).framesDelivered;
  }
  r.events = net->simulator().eventsProcessed();
  if (const sim::Gptp* g = net->gptp()) {
    r.gptp = g->stats();
    for (net::NodeId n = 0; n < sc.topo.numNodes(); ++n) {
      r.masters.push_back(g->nodeStats(n).master);
    }
  }
  return r;
}

/// Majority grandmaster over the nodes (a killed grandmaster keeps
/// following itself, so the network's choice is what most nodes follow).
std::uint64_t majorityMaster(const std::vector<std::uint64_t>& masters) {
  std::uint64_t best = 0;
  long bestCount = 0;
  for (const std::uint64_t m : masters) {
    const long c = std::count(masters.begin(), masters.end(), m);
    if (c > bestCount || (c == bestCount && m < best)) {
      best = m;
      bestCount = c;
    }
  }
  return best;
}

/// Checks one scenario run; returns the problems found.
std::vector<std::string> checkRun(const Scenario& sc, const RunResult& r,
                                  const RunResult* policeRef) {
  std::vector<std::string> errs;
  for (std::size_t i = 0; i < sc.specs.size(); ++i) {
    const net::StreamSpec& spec = sc.specs[i];
    const sim::StreamRecord& rec = r.records[i];
    errs.push_back(checkFrameBooks(rec));
    errs.push_back(checkSummary(rec.latencies, r.summaries[i]));
    const bool tct = spec.type == net::TrafficClass::TimeTriggered;
    if (tct && (sc.name == "clean" || sc.name == "avb")) {
      errs.push_back(checkNoMisses(rec.latencies, spec.maxLatency,
                                   rec.deadlineMisses));
    }
    if (sc.name == "police" && policeRef != nullptr && tct &&
        spec.name != "tct3") {  // tct3 crosses the lossy link
      errs.push_back(checkSameSamples(spec.name, rec.latencies,
                                      policeRef->records[i].latencies));
    }
    if (sc.name == "police" && policeRef != nullptr && spec.name == "bab") {
      errs.push_back(checkPolicerDropped(rec));
    }
    if (sc.name == "frer" && spec.redundancy > 1) {
      errs.push_back(checkProtectedDelivered(spec.name, rec));
    }
  }
  if (sc.name == "frer") {
    errs.push_back(checkGptpBooks(r.gptp));
    errs.push_back(checkReelected(majorityMaster(r.masters),
                                  sim::Gptp::identityOf(2)));
  }
  if (r.framesDelivered == 0) errs.push_back("no frame delivered");
  errs.erase(std::remove(errs.begin(), errs.end(), std::string()), errs.end());
  return errs;
}

}  // namespace

void runSimSoak(const Options& opt, Tracer& tracer, Outcome& out) {
  std::vector<Scenario> scenarios;
  {
    Span s(tracer, "workload.generate");
    scenarios = makeScenarios(opt.seed);
  }
  std::vector<Metric> solveSeconds;
  for (Scenario& sc : scenarios) {
    Span s(tracer, "sched.buildSchedule");
    const auto t0 = Clock::now();
    sc.schedule = std::make_shared<const sched::MethodSchedule>(
        sched::buildSchedule(sc.topo, sc.specs, sc.options));
    solveSeconds.push_back({"presolve_s." + sc.name, secondsSince(t0), "s"});
  }
  for (const Scenario& sc : scenarios) {
    const std::string e = sc.schedule->schedule.info.feasible
                              ? checkValid(sc.topo, sc.schedule->schedule)
                              : "infeasible";
    if (!e.empty()) {
      out.expect(false, sc.name + " schedule: " + e);
      out.attempted = out.failed = 1;
      return;
    }
  }
  // The policing scenario's reference outputs: the same schedule and seed
  // without the babbler and the loss, simulated once in set-up (untraced).
  Tracer quiet(false);
  RunResult policeRef;
  for (const Scenario& sc : scenarios) {
    if (sc.name != "police") continue;
    sim::SimConfig clean = sc.sim;
    clean.faults = {};
    policeRef = simulate(sc, clean, quiet);
  }
  const double setup = secondsSince(opt.start);

  std::vector<double> roundRates;
  std::map<std::string, std::vector<double>> byScenario;
  const auto start = Clock::now();
  const int maxRounds = opt.trace ? 1 : 1000;
  for (int round = 0; round < maxRounds; ++round) {
    if (round > 0 && secondsSince(start) >= opt.seconds) break;
    double wall = 0;
    std::int64_t frames = 0;
    for (const Scenario& sc : scenarios) {
      ++out.attempted;
      const RunResult r = simulate(sc, sc.sim, tracer);
      wall += r.seconds;
      frames += r.framesDelivered;
      byScenario[sc.name].push_back(r.seconds);
      const std::vector<std::string> errs = checkRun(sc, r, &policeRef);
      for (const std::string& e : errs) out.expect(false, sc.name + ": " + e);
      out.failed += errs.empty() ? 0 : 1;
      if (opt.trace) {
        tracer.count("sim.events." + sc.name, static_cast<double>(r.events));
        tracer.count("sim.frames_delivered." + sc.name,
                     static_cast<double>(r.framesDelivered));
        tracer.count("sim.events", static_cast<double>(r.events));
      }
    }
    roundRates.push_back(static_cast<double>(frames) / wall);
  }
  // A scenario's step does the same work in every round, so its time is its
  // best over the rounds: the repeat least disturbed by other load on the
  // host.  The four steps are the run's operations; a round is one of each.
  std::vector<double> steps;
  for (const auto& [name, v] : byScenario) {
    steps.push_back(*std::min_element(v.begin(), v.end()));
    out.named.push_back({"step_ms." + name, steps.back() * 1e3, "ms"});
  }
  double round = 0;
  for (const double t : steps) round += t;
  out.endToEnd = {{"setup_s", setup, "s"},
                  {"wall_s", round, "s"},
                  {"op_p50_ms", median(steps) * 1e3, "ms"},
                  {"op_tail_ms", tail(steps) * 1e3, "ms"}};
  out.named.push_back({"sim_frames_per_s", median(roundRates), "frames/s"});
  out.named.push_back({"rounds", static_cast<double>(roundRates.size()),
                       "count"});
  out.named.insert(out.named.end(), solveSeconds.begin(), solveSeconds.end());

  if (!opt.trace) return;
  double runSeconds = 0;
  for (const Scenario& sc : scenarios) {
    runSeconds += tracer.total("sim.run." + sc.name);
    out.layer("sim.run_s." + sc.name, tracer.total("sim.run." + sc.name), "s");
    out.layer("sim.events." + sc.name, tracer.counter("sim.events." + sc.name),
              "count");
    out.layer("sim.frames_delivered." + sc.name,
              tracer.counter("sim.frames_delivered." + sc.name), "count");
  }
  out.layer("sim.build_s", tracer.total("sim.build"), "s");
  out.layer("sim.events_per_s",
            tracer.counter("sim.events") / runSeconds, "1/s");
  out.layer("sim.frames_per_s", median(roundRates), "frames/s");
  out.layer("stats.summarize_s", tracer.total("stats.summarize"), "s");
  out.layer("sched.compile_program_s", tracer.total("sched.compileProgram"),
            "s");
  out.layer("net.gcl_entries", tracer.counter("net.gcl_entries"), "count");
  out.layer("net.gcl_windows", tracer.counter("net.gcl_windows"), "count");
  out.layer("net.psfp_compile_s", tracer.total("net.compileFilters"), "s");
  out.layer("smt.solve_s", tracer.total("sched.buildSchedule"), "s");
  out.layer("workload.generate_s", tracer.total("workload.generate"), "s");
}

}  // namespace pb
