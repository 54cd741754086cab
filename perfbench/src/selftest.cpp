// Self-tests of the independent checks: each check must pass on an intact
// input and fail on a deliberately broken one, or it proves nothing.
#include <cstdio>
#include <functional>

#include "bench.h"
#include "checks.h"

namespace pb {

using namespace etsn;

namespace {

int failures = 0;

void expectBoth(const char* name, const std::string& intact,
                const std::string& broken) {
  const bool ok = intact.empty() && !broken.empty();
  std::printf("%s %-26s intact: %s | broken: %s\n", ok ? "ok  " : "FAIL", name,
              intact.empty() ? "passes" : intact.c_str(),
              broken.empty() ? "PASSES (check cannot fail)" : broken.c_str());
  failures += ok ? 0 : 1;
}

/// A small exact-SMT schedule on the testbed: a shared and a non-shared
/// TCT stream plus an ECT stream.
struct Fixture {
  net::Topology topo = net::makeTestbedTopology();
  sched::MethodSchedule ms;

  Fixture() {
    std::vector<net::StreamSpec> specs;
    for (const auto& [name, src, dst, share] :
         {std::tuple{"a", 0, 2, true}, std::tuple{"b", 1, 3, false}}) {
      net::StreamSpec s;
      s.name = name;
      s.src = src;
      s.dst = dst;
      s.period = milliseconds(4);
      s.maxLatency = milliseconds(4);
      s.payloadBytes = 1500;
      s.releaseOffset = microseconds(3990);  // slots wrap the period
      s.share = share;
      specs.push_back(s);
    }
    specs.push_back(workload::makeEct("e", 1, 3, milliseconds(8), 500));
    sched::ScheduleOptions o;
    o.config.numProbabilistic = 2;
    ms = sched::buildSchedule(topo, specs, o);
    if (!ms.schedule.info.feasible) throw ConfigError("self-test fixture infeasible");
  }

  /// Index of a slot of a Det stream on `hop`.
  std::size_t detSlot(int hop) const {
    for (std::size_t i = 0; i < ms.schedule.slots.size(); ++i) {
      const sched::Slot& s = ms.schedule.slots[i];
      if (s.hop == hop &&
          ms.schedule.streams[static_cast<std::size_t>(s.stream)].kind ==
              sched::StreamKind::Det) {
        return i;
      }
    }
    throw ConfigError("no Det slot");
  }
};

void gclTests(const Fixture& f) {
  const sched::NetworkProgram good = sched::compileProgram(f.topo, f.ms);
  // One window removed: compile from a schedule missing one slot.
  sched::MethodSchedule missing = f.ms;
  missing.schedule.slots.erase(missing.schedule.slots.begin() +
                               static_cast<std::ptrdiff_t>(f.detSlot(1)));
  expectBoth("gcl: window removed", checkGclExact(f.topo, f.ms.schedule, good),
             checkGclExact(f.topo, f.ms.schedule,
                           sched::compileProgram(f.topo, missing)));
  // One window too many: a copy of a slot shifted to an idle moment.
  sched::MethodSchedule extra = f.ms;
  sched::Slot copy = extra.schedule.slots[f.detSlot(0)];
  copy.start = (copy.start + milliseconds(2)) % milliseconds(4);
  extra.schedule.slots.push_back(copy);
  expectBoth("gcl: extra open time", checkGclExact(f.topo, f.ms.schedule, good),
             checkGclExact(f.topo, f.ms.schedule,
                           sched::compileProgram(f.topo, extra)));
}

void psfpTests(const Fixture& f) {
  const net::PsfpConfig good = net::compileFilters(f.topo, f.ms);
  net::PsfpConfig broken = good;
  for (net::StreamFilter& filter : broken.filters) {
    if (filter.kind == net::StreamFilter::Kind::Gate &&
        !filter.gate.windows.empty()) {
      filter.gate.windows.pop_back();
      break;
    }
  }
  expectBoth("psfp: window removed", checkPsfpCovers(f.topo, f.ms.schedule, good),
             checkPsfpCovers(f.topo, f.ms.schedule, broken));
}

void validateTests(const Fixture& f) {
  // Two TCT slots on one link moved onto each other.
  sched::Schedule broken = f.ms.schedule;
  const sched::Slot& first = broken.slots[f.detSlot(1)];
  for (sched::Slot& s : broken.slots) {
    const auto& st = broken.streams[static_cast<std::size_t>(s.stream)];
    const auto& ft = broken.streams[static_cast<std::size_t>(first.stream)];
    if (s.stream != first.stream && st.kind == sched::StreamKind::Det &&
        st.path[static_cast<std::size_t>(s.hop)] ==
            ft.path[static_cast<std::size_t>(first.hop)]) {
      s.start = first.start;
      break;
    }
  }
  expectBoth("validate: overlap", checkValid(f.topo, f.ms.schedule),
             checkValid(f.topo, broken));
}

void sampleTests(const Fixture& f) {
  const std::vector<TimeNs> samples = {500, 120, 900, 300, 300, 700};
  const stats::Summary s = stats::summarize(samples);
  stats::Summary badMax = s;
  badMax.maxNs += 1;
  expectBoth("summary: max tampered", checkSummary(samples, s),
             checkSummary(samples, badMax));
  stats::Summary badMean = s;
  badMean.meanNs *= 1.01;
  expectBoth("summary: mean tampered", checkSummary(samples, s),
             checkSummary(samples, badMean));

  std::vector<TimeNs> late = samples;
  late[2] = 1001;  // pushed past the deadline
  expectBoth("deadline: sample late", checkNoMisses(samples, 1000, 0),
             checkNoMisses(late, 1000, 0));
  expectBoth("deadline: miss counted", checkNoMisses(samples, 1000, 0),
             checkNoMisses(samples, 1000, 1));

  std::vector<TimeNs> moved = samples;
  moved[0] += 1;
  expectBoth("same samples", checkSameSamples("s", samples, samples),
             checkSameSamples("s", samples, moved));

  expectBoth("tct count", checkTctCount(120, milliseconds(4), milliseconds(480)),
             checkTctCount(122, milliseconds(4), milliseconds(480)));
  expectBoth("tct count, known offset",
             checkTctCount(120, milliseconds(4), milliseconds(480),
                           microseconds(100)),
             checkTctCount(121, milliseconds(4), milliseconds(480),
                           microseconds(100)));

  net::StreamSpec impossible;
  impossible.name = "x";
  impossible.src = 0;
  impossible.dst = 3;
  impossible.payloadBytes = 4500;
  impossible.maxLatency = microseconds(500);
  net::StreamSpec easy = impossible;
  easy.payloadBytes = 100;
  expectBoth("rejection bound", checkRejectionJustified(f.topo, impossible),
             checkRejectionJustified(f.topo, easy));
}

void bookTests() {
  sim::StreamRecord r;
  r.latencies = {1, 2, 3};
  r.messagesSent = 4;
  r.messagesDelivered = 3;
  r.messagesUnterminated = 1;
  r.framesEmitted = 10;
  r.framesDelivered = 6;
  r.framesDroppedLoss = 1;
  r.duplicatesEliminated = 2;
  r.framesInFlight = 1;
  sim::StreamRecord frames = r;
  frames.framesDelivered -= 1;
  expectBoth("frame books", checkFrameBooks(r), checkFrameBooks(frames));
  sim::StreamRecord msgs = r;
  msgs.messagesUnterminated = 0;
  expectBoth("message books (sim)", checkFrameBooks(r), checkFrameBooks(msgs));

  StreamResult sr;
  sr.name = "s";
  sr.samples = {1, 2};
  sr.sent = 3;
  sr.delivered = 2;
  sr.unterminated = 1;
  StreamResult bad = sr;
  bad.delivered = 3;
  expectBoth("message books (facade)", checkMessageBooks(sr),
             checkMessageBooks(bad));

  sim::StreamRecord lost = r;
  lost.messagesLost = 1;
  lost.messagesUnterminated = 0;
  expectBoth("frer delivery", checkProtectedDelivered("s", r),
             checkProtectedDelivered("s", lost));

  sim::StreamRecord babbler;
  babbler.framesDroppedPolicer = 40;
  sim::StreamRecord unpoliced = babbler;
  unpoliced.framesDroppedPolicer = 0;
  expectBoth("policer drops babble", checkPolicerDropped(babbler),
             checkPolicerDropped(unpoliced));

  sim::GptpStats g;
  g.framesSent = 10;
  g.framesDelivered = 8;
  g.framesDropped = 1;
  g.framesInFlight = 1;
  sim::GptpStats gb = g;
  gb.framesDropped = 0;
  expectBoth("gptp books", checkGptpBooks(g), checkGptpBooks(gb));
  expectBoth("gm re-elected", checkReelected(5, 3), checkReelected(3, 3));
  expectBoth("campaign dumps", checkSameDump("{a}", "{a}"),
             checkSameDump("{a}", "{b}"));
}

void specSetTests() {
  net::StreamSpec a;
  a.name = "a";
  a.payloadBytes = 100;
  std::map<std::string, net::StreamSpec> replayed = {{"a", a}};
  net::StreamSpec changed = a;
  changed.payloadBytes = 200;
  expectBoth("spec set: content", checkSpecSet({a}, replayed),
             checkSpecSet({changed}, replayed));
  net::StreamSpec b = a;
  b.name = "b";
  expectBoth("spec set: extra", checkSpecSet({a}, replayed),
             checkSpecSet({a, b}, replayed));
}

}  // namespace

int runSelfTests() {
  const Fixture f;
  gclTests(f);
  psfpTests(f);
  validateTests(f);
  sampleTests(f);
  bookTests();
  specSetTests();
  std::printf("%s: %d check(s) could not be shown failing\n",
              failures ? "FAILED" : "all checks fail on broken input", failures);
  return failures;
}

}  // namespace pb
