// paper_sweep: the §VI evaluation shape.  Replicates × loads (25 % to
// 70 %) × the E-TSN, PERIOD and AVB methods on the §VI-B testbed, every
// cell solved by the exact SMT engine, validated, compiled, simulated and
// summarised through runCampaign on a fixed pool.  One operation is one
// cell.
//
// Rounds: each round runs the run's grid again until the run's time is
// up.  A cell's time is its best over the rounds: the work is the same in
// every round, so the best repeat is the measurement least disturbed by
// other load on the host.  The grid's time is the sum of its cells' best
// times.  Its best round on the pool is printed too, but it needs all the
// workers fast at once for a whole round, and across ten runs it spread
// about twice as much as the summed cells.  Set-up
// generates the grid, then runs a fixed warm-up grid on the pool (the same
// in every run), so that the pool's threads, the allocator and the code's
// pages are warm before the first round.
//
// Traced run: the grid once, first serially with spans around the layers
// (expand, SMT encode and solve, validate, the façade's compile/simulate),
// then again on the pool untraced; the two campaign dumps must match byte
// for byte.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "etsn/campaign.h"
#include "sched/expand.h"
#include "sched/smt_builder.h"
#include "sched/validate.h"

namespace pb {

using namespace etsn;

namespace {

constexpr double kLoads[] = {0.25, 0.40, 0.55, 0.70};
constexpr sched::Method kMethods[] = {sched::Method::ETSN,
                                      sched::Method::PERIOD,
                                      sched::Method::AVB};
constexpr int kReplicates = 4;      // per load
constexpr std::uint64_t kPhaseSeed = 0x9a5e;  // the grid's release phases
constexpr int kTctStreams = 3;      // one per period, all on the trunk
constexpr int kProbabilistic = 4;   // N
const TimeNs kSimDuration = milliseconds(480);  // a multiple of 16 ms

struct CellInput {
  std::string label;
  double load = 0;
  sched::Method method = sched::Method::ETSN;
  std::uint64_t simSeed = 0;  // the simulation's draws (event traffic)
  std::shared_ptr<const std::vector<net::StreamSpec>> specs;
};

/// §VI-B testbed traffic, built here so it does not move with the repo's
/// own bench helpers: one TCT stream per period {4, 8, 16} ms, each from a
/// device on switch 1 to a device on switch 2 (all cross the trunk, the
/// bottleneck), payloads sized so the trunk carries `load`, and a random
/// release phase per stream drawn from the seed; plus the testbed's ECT
/// stream D2 -> D4.  The stream structure is fixed and the phases vary:
/// drawing endpoints and periods at random too makes exact-SMT solve
/// times vary by two orders of magnitude between seeds.
std::vector<net::StreamSpec> testbedSpecs(double load, std::uint64_t seed) {
  Rng rng(seed);
  const TimeNs periods[] = {milliseconds(4), milliseconds(8), milliseconds(16)};
  std::vector<net::StreamSpec> specs;
  for (int i = 0; i < kTctStreams; ++i) {
    net::StreamSpec s;
    s.name = "tct" + std::to_string(i + 1);
    s.src = static_cast<net::NodeId>(i % 2);
    s.dst = static_cast<net::NodeId>(2 + (i / 2) % 2);
    s.period = periods[i % 3];
    s.maxLatency = s.period;
    s.releaseOffset = microseconds(rng.uniformInt(0, s.period / kNsPerUs - 1));
    s.share = true;
    s.payloadBytes =
        workload::payloadForRate(load * 100e6 / kTctStreams, s.period);
    specs.push_back(std::move(s));
  }
  specs.push_back(workload::makeEct("ect", 1, 3, milliseconds(16), 1500));
  return specs;
}

/// One workload (a load and the seed of its release phases) under the
/// three methods, simulated with `simSeed`.
void addUnit(std::vector<CellInput>& cells, const std::string& prefix,
             double load, std::uint64_t phaseSeed, std::uint64_t simSeed) {
  auto specs = std::make_shared<const std::vector<net::StreamSpec>>(
      testbedSpecs(load, phaseSeed));
  for (const sched::Method m : kMethods) {
    char label[64];
    std::snprintf(label, sizeof label, "%s/load%.0f/%s", prefix.c_str(),
                  load * 100, sched::methodName(m));
    cells.push_back({label, load, m, simSeed, specs});
  }
}

/// The grid, lightest load first.  The pool deals tasks round-robin and
/// each worker runs its newest task first, so the 70 % cells start first
/// and the light ones fill in at the end: the round's wall then follows its
/// total work, not where a slow cell happened to land.
///
/// Each (replicate, load) pair has its own release phases, drawn from a
/// fixed seed, so every run solves the same exact-SMT instances; the run
/// seed drives each cell's simulation.  Solve times at 70 % load range over
/// 0.6-2 s with the phases, so phases drawn per run would move the grid's
/// wall and tail between seeds by more than the bounds allow.
std::vector<CellInput> makeGrid(std::uint64_t seed) {
  constexpr int kNumLoads = static_cast<int>(std::size(kLoads));
  std::vector<CellInput> cells;
  for (int l = 0; l < kNumLoads; ++l) {
    for (int rep = 0; rep < kReplicates; ++rep) {
      const auto unit = static_cast<std::uint64_t>(rep * kNumLoads + l);
      addUnit(cells, "rep" + std::to_string(rep), kLoads[l],
              Rng::deriveSeed(kPhaseSeed, unit), Rng::deriveSeed(seed, unit));
    }
  }
  return cells;
}

/// The warm-up grid: two fixed workloads, independent of the run seed.
std::vector<CellInput> warmupCells() {
  std::vector<CellInput> cells;
  addUnit(cells, "warmup", 0.40, 0x3a11u, 0x3a11u);
  addUnit(cells, "warmup", 0.55, 0x3a12u, 0x3a12u);
  return cells;
}

Experiment cellExperiment(const CellInput& c) {
  Experiment ex;
  ex.topo = net::makeTestbedTopology();
  ex.specs = *c.specs;
  ex.options.method = c.method;
  ex.options.engine = sched::Engine::Smt;
  ex.options.config.numProbabilistic = kProbabilistic;
  ex.simConfig.duration = kSimDuration;
  ex.simConfig.seed = c.simSeed;
  ex.validateSchedule = true;
  return ex;
}

/// The E-TSN solve, taken apart so encode and solve are timed separately;
/// assembles the same MethodSchedule buildSchedule returns.
std::shared_ptr<const sched::MethodSchedule> tracedEtsnSolve(
    const Experiment& ex, Tracer& tracer) {
  sched::Expansion exp;
  {
    Span s(tracer, "sched.expand");
    exp = sched::expandStreams(ex.topo, ex.specs, ex.options.config);
  }
  auto ms = std::make_shared<sched::MethodSchedule>();
  ms->method = ex.options.method;
  ms->avbIdleSlopeFraction = ex.options.avbIdleSlopeFraction;
  sched::Schedule& out = ms->schedule;
  out.config = ex.options.config;
  out.specs = ex.specs;
  out.specToStreams = exp.specToStreams;
  std::unique_ptr<sched::ScheduleSmt> smt;
  {
    Span s(tracer, "smt.encode");
    smt = std::make_unique<sched::ScheduleSmt>(ex.topo, exp.streams,
                                               ex.options.config);
    smt->buildConstraints();
  }
  smt::Result r;
  {
    Span s(tracer, "smt.solve");
    r = smt->solve();
  }
  const smt::SolverStats st = smt->solver().stats();
  tracer.count("smt.conflicts", static_cast<double>(st.sat.conflicts));
  tracer.count("smt.decisions", static_cast<double>(st.sat.decisions));
  tracer.count("smt.propagations", static_cast<double>(st.sat.propagations));
  tracer.count("smt.theory_conflicts",
               static_cast<double>(st.sat.theoryConflicts));
  tracer.count("smt.theory_assertions",
               static_cast<double>(st.sat.theoryAssertions));
  tracer.count("smt.restarts", static_cast<double>(st.sat.restarts));
  tracer.count("smt.atoms", static_cast<double>(st.atoms));
  tracer.count("smt.clauses", static_cast<double>(st.clauses));
  out.streams = smt->streams();
  out.info.feasible = r == smt::Result::Sat;
  out.info.engine = "smt";
  out.info.smtAtoms = st.atoms;
  out.info.smtClauses = st.clauses;
  out.info.smtConflicts = st.sat.conflicts;
  out.info.smtDecisions = st.sat.decisions;
  out.info.smtIntVars = st.intVars;
  if (out.info.feasible) out.slots = smt->extractSlots();
  TimeNs hyper = 1;
  for (const sched::ExpandedStream& s : out.streams) {
    hyper = std::lcm(hyper, s.period);
  }
  out.hyperperiod = out.streams.empty() ? 0 : hyper;
  return ms;
}

/// Factory of the traced serial run: solves and validates with spans, then
/// hands the schedule to the façade for compile, simulate and summarise.
Experiment tracedCell(const CellInput& c, Tracer& tracer,
                      std::vector<TimeNs>& firstOffsets) {
  Experiment ex = cellExperiment(c);
  std::shared_ptr<const sched::MethodSchedule> ms;
  {
    Span s(tracer, "smt.cell_solve");
    if (c.method == sched::Method::ETSN) {
      ms = tracedEtsnSolve(ex, tracer);
    } else {
      Span b(tracer, "sched.buildSchedule");
      ms = std::make_shared<const sched::MethodSchedule>(
          sched::buildSchedule(ex.topo, ex.specs, ex.options));
    }
  }
  if (ms->schedule.info.feasible) {
    Span s(tracer, "sched.validate");
    const std::vector<sched::Violation> v =
        sched::validate(ex.topo, ms->schedule);
    if (!v.empty()) {
      throw InvariantError("schedule of " + c.label + " violates " +
                           v.front().constraint);
    }
    // First release of every TCT talker: its earliest hop-0 slot.
    for (std::size_t i = 0; i < ex.specs.size(); ++i) {
      TimeNs first = -1;
      for (const sched::StreamId id : ms->schedule.specToStreams[i]) {
        for (const sched::Slot& slot : ms->schedule.slotsOf(id, 0)) {
          first = first < 0 ? slot.start : std::min(first, slot.start);
        }
      }
      firstOffsets.push_back(first);
    }
  }
  ex.presolved = ms;
  ex.validateSchedule = false;
  return ex;
}

Campaign makeCampaign(const std::vector<CellInput>& cells, std::uint64_t seed,
                      int threads) {
  Campaign c;
  c.name = "paper_sweep";
  c.seed = seed;
  c.threads = threads;
  for (const CellInput& cell : cells) {
    c.add(cell.label,
          [cell](std::uint64_t) { return cellExperiment(cell); });
  }
  return c;
}

/// Checks one round's results; returns the number of failed cells.
int checkRound(const CampaignResult& r, const std::vector<CellInput>& cells,
               const std::vector<std::vector<TimeNs>>* offsets, Outcome& out) {
  int failed = 0;
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    const ExperimentResult& res = r.tasks[i].result;
    const CellInput& cell = cells[i];
    std::vector<std::string> errs;
    if (!res.feasible) errs.push_back("infeasible");
    for (std::size_t s = 0; s < res.streams.size(); ++s) {
      const StreamResult& sr = res.streams[s];
      const net::StreamSpec& spec = (*cell.specs)[s];
      errs.push_back(checkMessageBooks(sr));
      errs.push_back(checkSummary(sr.samples, sr.latency));
      if (sr.type == net::TrafficClass::TimeTriggered) {
        errs.push_back(checkNoMisses(sr.samples, spec.maxLatency,
                                     sr.deadlineMisses));
        const TimeNs off = offsets && s < (*offsets)[i].size()
                               ? (*offsets)[i][s]
                               : static_cast<TimeNs>(-1);
        errs.push_back(checkTctCount(sr.sent, spec.period, kSimDuration, off));
      } else if (cell.method != sched::Method::AVB) {
        // The paper's guarantee: E-TSN and PERIOD bound ECT latency.
        errs.push_back(checkNoMisses(sr.samples, sr.deadline,
                                     sr.deadlineMisses));
      }
    }
    bool ok = true;
    for (const std::string& e : errs) {
      if (!e.empty()) {
        out.expect(false, cell.label + ": " + e);
        ok = false;
      }
    }
    failed += ok ? 0 : 1;
  }
  return failed;
}

/// Two workers at most.  On a shared four-core host every busy worker
/// slows the others (one thread ran 38 % slower beside three busy ones),
/// and with three workers two ten-run sets of the grid spread up to 0.29
/// where two workers stayed within 0.12.
int poolThreads() {
  return std::max(1, std::min(2, static_cast<int>(
                                     std::thread::hardware_concurrency())));
}

}  // namespace

void runPaperSweep(const Options& opt, Tracer& tracer, Outcome& out) {
  std::vector<CellInput> cells;
  {
    Span s(tracer, "workload.generate");
    cells = makeGrid(opt.seed);
  }
  const int threads = poolThreads();

  if (!opt.trace) {
    const std::vector<CellInput> warmup = warmupCells();
    try {
      const CampaignResult r =
          runCampaign(makeCampaign(warmup, opt.seed, threads));
      out.expect(checkRound(r, warmup, nullptr, out) == 0,
                 "the warm-up grid failed its checks");
    } catch (const std::exception& e) {
      out.expect(false, std::string("warm-up failed: ") + e.what());
    }
    const double setup = secondsSince(opt.start);
    std::vector<double> roundWalls;
    // Per cell, its best time over the rounds.
    std::vector<double> cellBest(cells.size(),
                                 std::numeric_limits<double>::infinity());
    const auto start = Clock::now();
    while (roundWalls.empty() || secondsSince(start) < opt.seconds) {
      const auto t0 = Clock::now();
      out.attempted += static_cast<std::int64_t>(cells.size());
      try {
        const CampaignResult r =
            runCampaign(makeCampaign(cells, opt.seed, threads));
        roundWalls.push_back(secondsSince(t0));
        for (std::size_t i = 0; i < r.tasks.size(); ++i) {
          cellBest[i] = std::min(cellBest[i], r.tasks[i].wallSeconds);
        }
        out.failed += checkRound(r, cells, nullptr, out);
      } catch (const std::exception& e) {
        out.failed += static_cast<std::int64_t>(cells.size());
        out.expect(false, std::string("round failed: ") + e.what());
        break;
      }
    }
    if (roundWalls.empty()) return;
    const double measured = secondsSince(start);
    const double wall = *std::min_element(roundWalls.begin(), roundWalls.end());
    double grid = 0;
    for (const double t : cellBest) grid += t;
    const double cellP50 = median(cellBest);
    const double cellTail = tail(cellBest);
    out.endToEnd = {{"setup_s", setup, "s"},
                    {"wall_s", grid, "s"},
                    {"op_p50_ms", cellP50 * 1e3, "ms"},
                    {"op_tail_ms", cellTail * 1e3, "ms"}};
    out.named = {{"sweep_wall_s", wall, "s"},
                 {"sweep_wall_median_s", median(roundWalls), "s"},
                 {"cell_p50_s", cellP50, "s"},
                 {"cell_tail_s", cellTail, "s"},
                 {"cells_per_s",
                  static_cast<double>(out.attempted) / measured, "1/s"},
                 {"rounds", static_cast<double>(roundWalls.size()), "count"},
                 {"cells", static_cast<double>(cells.size()), "count"}};
    return;
  }

  // Traced: the grid once serially with spans, then on the pool untraced.
  // Per cell, per spec: the first release offset, read from the schedule.
  std::vector<std::vector<TimeNs>> offsets(cells.size());
  Campaign serial;
  serial.name = "paper_sweep";
  serial.seed = opt.seed;
  serial.threads = 1;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    serial.add(cells[i].label, [&cells, &tracer, &offsets, i](std::uint64_t) {
      return tracedCell(cells[i], tracer, offsets[i]);
    });
  }
  out.attempted = static_cast<std::int64_t>(cells.size());
  std::string serialDump;
  double serialWall = 0;
  try {
    const auto t0 = Clock::now();
    const CampaignResult rs = runCampaign(serial);
    serialWall = secondsSince(t0);
    serialDump = toJson(rs, /*includeSamples=*/true);
    out.failed += checkRound(rs, cells, &offsets, out);
  } catch (const std::exception& e) {
    out.failed = out.attempted;
    out.expect(false, std::string("traced round failed: ") + e.what());
  }
  double busy = 0;
  try {
    const CampaignResult rp = runCampaign(makeCampaign(cells, opt.seed, threads));
    double taskSeconds = 0;
    for (const CampaignTaskResult& t : rp.tasks) taskSeconds += t.wallSeconds;
    busy = taskSeconds / (rp.threads * rp.wallSeconds);
    out.expect(checkRound(rp, cells, nullptr, out) == 0,
               "pooled round failed its checks");
    const std::string e =
        checkSameDump(serialDump, toJson(rp, /*includeSamples=*/true));
    out.expect(e.empty(), e);
  } catch (const std::exception& e) {
    out.expect(false, std::string("pooled round failed: ") + e.what());
  }

  const double conflicts = tracer.counter("smt.conflicts");
  const double solveSeconds =
      tracer.total("smt.solve") + tracer.total("sched.buildSchedule");
  out.layer("common.pool_busy_ratio", busy, "ratio");
  out.layer("smt.encode_s", tracer.total("smt.encode"), "s");
  out.layer("smt.solve_s", solveSeconds, "s");
  out.layer("smt.long_pole_s", tracer.longest("smt.cell_solve"), "s");
  for (const char* c : {"conflicts", "decisions", "propagations",
                        "theory_conflicts", "theory_assertions", "restarts",
                        "atoms", "clauses"}) {
    const std::string name = std::string("smt.") + c;
    out.layer(name, tracer.counter(name), "count");
  }
  out.layer("smt.decisions_per_conflict",
            conflicts > 0 ? tracer.counter("smt.decisions") / conflicts : 0,
            "ratio");
  out.layer("sched.expand_s", tracer.total("sched.expand"), "s");
  out.layer("sched.validate_s", tracer.total("sched.validate"), "s");
  out.layer("workload.generate_s", tracer.total("workload.generate"), "s");
  out.named = {{"traced_serial_wall_s", serialWall, "s"},
               {"cells", static_cast<double>(cells.size()), "count"}};
}

}  // namespace pb
