#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sched/validate.h"

namespace pb {

using namespace etsn;

namespace {

struct Interval {
  TimeNs start;
  TimeNs end;  // half-open
};

/// Folds [start, end) into [0, cycle), splitting a wrapping interval.
void addFolded(std::vector<Interval>& out, TimeNs start, TimeNs end,
               TimeNs cycle) {
  if (end - start >= cycle) {
    out.push_back({0, cycle});
    return;
  }
  const TimeNs length = end - start;
  start = ((start % cycle) + cycle) % cycle;
  end = start + length;
  if (end <= cycle) {
    out.push_back({start, end});
  } else {
    out.push_back({start, cycle});
    out.push_back({0, end - cycle});
  }
}

std::vector<Interval> mergeAll(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  });
  std::vector<Interval> out;
  for (const Interval& i : v) {
    if (!out.empty() && i.start <= out.back().end) {
      out.back().end = std::max(out.back().end, i.end);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

TimeNs measure(const std::vector<Interval>& merged) {
  TimeNs sum = 0;
  for (const Interval& i : merged) sum += i.end - i.start;
  return sum;
}

}  // namespace

long long gclWindowCount(const sched::Schedule& schedule) {
  long long n = 0;
  for (const sched::Slot& slot : schedule.slots) {
    const sched::ExpandedStream& s =
        schedule.streams[static_cast<std::size_t>(slot.stream)];
    n += schedule.hyperperiod / s.period;
  }
  return n;
}

std::string checkGclExact(const net::Topology& topo,
                          const sched::Schedule& schedule,
                          const sched::NetworkProgram& program) {
  const TimeNs cycle = schedule.hyperperiod;
  if (cycle <= 0) return "schedule has no hyperperiod";
  if (program.gclCycle != cycle) return "GCL cycle differs from hyperperiod";
  // (link, queue) -> TCT windows within the cycle.
  std::map<std::pair<net::LinkId, int>, std::vector<Interval>> windows;
  for (const sched::Slot& slot : schedule.slots) {
    const sched::ExpandedStream& s =
        schedule.streams[static_cast<std::size_t>(slot.stream)];
    if (s.kind != sched::StreamKind::Det) continue;
    const net::LinkId link = s.path[static_cast<std::size_t>(slot.hop)];
    auto& w = windows[{link, s.priority}];
    for (TimeNs from = slot.start; from < slot.start + cycle; from += s.period) {
      addFolded(w, from, from + slot.duration, cycle);
    }
  }
  for (auto& [key, raw] : windows) {
    const auto [link, queue] = key;
    const net::Gcl& gcl = program.linkGcl[static_cast<std::size_t>(link)];
    std::ostringstream where;
    where << "link " << topo.node(topo.link(link).from).name << "->"
          << topo.node(topo.link(link).to).name << " queue " << queue;
    if (!gcl.installed()) return "no GCL installed on " + where.str();
    for (const Interval& i : raw) {
      for (const TimeNs t : {i.start, i.start + (i.end - i.start) / 2,
                             i.end - 1}) {
        if (!gcl.gateOpen(queue, t)) {
          std::ostringstream msg;
          msg << "gate closed at " << t << " ns inside a slot window on "
              << where.str();
          return msg.str();
        }
      }
    }
    TimeNs open = 0;
    for (const net::GclEntry& e : gcl.entries()) {
      if ((e.gateMask >> queue) & 1) open += e.duration;
    }
    const TimeNs expected = measure(mergeAll(raw));
    if (open != expected) {
      std::ostringstream msg;
      msg << "queue open " << open << " ns per cycle but its slot windows "
          << "cover " << expected << " ns on " << where.str();
      return msg.str();
    }
  }
  return "";
}

std::string checkPsfpCovers(const net::Topology& topo,
                            const sched::Schedule& schedule,
                            const net::PsfpConfig& filters) {
  for (std::size_t i = 0; i < schedule.specs.size(); ++i) {
    const net::StreamSpec& spec = schedule.specs[i];
    const auto& ids = schedule.specToStreams[i];
    if (spec.type != net::TrafficClass::TimeTriggered || ids.empty()) continue;
    const net::StreamFilter* f = filters.filterFor(static_cast<int>(i));
    if (f == nullptr || f->kind != net::StreamFilter::Kind::Gate) {
      return "TCT spec " + spec.name + " has no PSFP gate";
    }
    for (std::size_t m = 0; m < ids.size(); ++m) {
      const sched::ExpandedStream& s =
          schedule.streams[static_cast<std::size_t>(ids[m])];
      const net::GateFilter& gate = f->gateFor(static_cast<int>(m));
      if (gate.period != s.period) {
        return "PSFP gate period differs from stream period for " + spec.name;
      }
      const TimeNs prop = topo.link(s.path[0]).propagationDelay;
      for (const sched::Slot& slot : schedule.slotsOf(s.id, 0)) {
        // A frame sent inside the slot is fully received prop later.
        std::vector<Interval> need;
        addFolded(need, slot.start + prop, slot.start + slot.duration + prop + 1,
                  s.period);
        for (const Interval& n : need) {
          bool covered = false;
          for (const net::ArrivalWindow& w : gate.windows) {
            covered = covered || (w.start <= n.start && n.end <= w.end);
          }
          if (!covered) {
            std::ostringstream msg;
            msg << "PSFP gate of " << spec.name << " misses arrivals ["
                << n.start << ", " << n.end << ") of a hop-0 slot";
            return msg.str();
          }
        }
      }
    }
  }
  return "";
}

std::string checkSummary(const std::vector<TimeNs>& samples,
                         const stats::Summary& s) {
  std::vector<TimeNs> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const long long n = static_cast<long long>(sorted.size());
  if (s.count != n) return "summary count differs from the sample count";
  if (n == 0) return "";
  // Nearest rank: rank 1 is the minimum, rank n the maximum.
  if (s.minNs != sorted.front()) return "summary min is not rank 1";
  if (s.maxNs != sorted.back()) return "summary max is not rank n";
  long double sum = 0;
  for (const TimeNs v : sorted) sum += static_cast<long double>(v);
  const long double mean = sum / static_cast<long double>(n);
  long double var = 0;
  for (const TimeNs v : sorted) {
    const long double d = static_cast<long double>(v) - mean;
    var += d * d;
  }
  const long double sd = std::sqrt(var / static_cast<long double>(n));
  const auto close = [](long double a, long double b) {
    return std::fabs(a - b) <= 1e-6L * std::max<long double>(1, std::fabs(b));
  };
  if (!close(s.meanNs, mean)) return "summary mean differs from recomputation";
  if (!close(s.stddevNs, sd)) return "summary stddev differs from recomputation";
  return "";
}

std::string checkNoMisses(const std::vector<TimeNs>& samples, TimeNs deadline,
                          long long recordedMisses) {
  long long late = 0;
  for (const TimeNs v : samples) late += v > deadline ? 1 : 0;
  if (late > 0) {
    return std::to_string(late) + " samples exceed the deadline";
  }
  if (recordedMisses != 0) {
    return "recorder counts " + std::to_string(recordedMisses) +
           " misses that no sample shows";
  }
  return "";
}

std::string checkFrameBooks(const sim::StreamRecord& r) {
  const std::int64_t frames = r.framesDelivered + r.framesDroppedLoss +
                              r.framesDroppedOutage + r.framesDroppedPolicer +
                              r.framesDroppedOverflow + r.duplicatesEliminated +
                              r.framesInFlight;
  if (r.framesEmitted != frames) {
    return "frame books open: emitted " + std::to_string(r.framesEmitted) +
           " != accounted " + std::to_string(frames);
  }
  const std::int64_t msgs =
      r.messagesDelivered + r.messagesLost + r.messagesUnterminated;
  if (r.messagesSent != msgs) {
    return "message books open: sent " + std::to_string(r.messagesSent) +
           " != accounted " + std::to_string(msgs);
  }
  if (static_cast<std::int64_t>(r.latencies.size()) != r.messagesDelivered) {
    return "latency samples differ from delivered messages";
  }
  return "";
}

std::string checkMessageBooks(const StreamResult& r) {
  if (r.sent != r.delivered + r.lost + r.unterminated) {
    return "message books of " + r.name + " open: sent " +
           std::to_string(r.sent) + " != delivered + lost + in flight";
  }
  if (static_cast<std::int64_t>(r.samples.size()) != r.delivered) {
    return "latency samples of " + r.name + " differ from deliveries";
  }
  return "";
}

std::string checkTctCount(long long sent, TimeNs period, TimeNs duration,
                          TimeNs offset) {
  const auto count = [&](TimeNs off) {
    return off > duration ? 0LL
                          : static_cast<long long>((duration - off) / period) + 1;
  };
  const long long lo = offset < 0 ? count(2 * period - 1) : count(offset);
  const long long hi = offset < 0 ? count(0) : count(offset);
  if (sent < lo || sent > hi) {
    std::ostringstream msg;
    msg << "talker sent " << sent << " messages, period and duration imply "
        << lo << ".." << hi;
    return msg.str();
  }
  return "";
}

TimeNs latencyLowerBound(const net::Topology& topo,
                         const net::StreamSpec& spec) {
  const std::vector<net::LinkId> path = topo.shortestPath(spec.src, spec.dst);
  const net::Link& first = topo.link(path.front());
  const auto bitsTime = [](long long bytes, long long bps) {
    return static_cast<TimeNs>(bytes * 8 * 1'000'000'000LL / bps);
  };
  const int lastFragment =
      spec.payloadBytes % 1500 == 0 ? 1500 : spec.payloadBytes % 1500;
  TimeNs bound = bitsTime(spec.payloadBytes, first.bandwidthBps);
  for (std::size_t h = 0; h < path.size(); ++h) {
    const net::Link& l = topo.link(path[h]);
    bound += l.propagationDelay;
    if (h > 0) bound += bitsTime(lastFragment, l.bandwidthBps);
  }
  return bound;
}

std::string checkRejectionJustified(const net::Topology& topo,
                                    const net::StreamSpec& spec) {
  const TimeNs bound = latencyLowerBound(topo, spec);
  if (bound <= spec.maxLatency) {
    return "rejection of " + spec.name + " not justified: latency bound " +
           std::to_string(bound) + " ns fits its " +
           std::to_string(spec.maxLatency) + " ns deadline";
  }
  return "";
}

std::string checkSameSamples(const std::string& stream,
                             const std::vector<TimeNs>& a,
                             const std::vector<TimeNs>& b) {
  if (a != b) return "samples of " + stream + " differ from the clean run";
  return "";
}

std::string checkSpecSet(const std::vector<net::StreamSpec>& live,
                         const std::map<std::string, net::StreamSpec>& replayed) {
  if (live.size() != replayed.size()) {
    return "live spec count " + std::to_string(live.size()) +
           " != replayed " + std::to_string(replayed.size());
  }
  for (const net::StreamSpec& s : live) {
    const auto it = replayed.find(s.name);
    if (it == replayed.end()) return "live spec " + s.name + " not replayed";
    const net::StreamSpec& r = it->second;
    if (r.src != s.src || r.dst != s.dst || r.period != s.period ||
        r.payloadBytes != s.payloadBytes || r.maxLatency != s.maxLatency ||
        r.type != s.type || r.share != s.share) {
      return "live spec " + s.name + " differs from the replayed one";
    }
  }
  return "";
}

std::string checkProtectedDelivered(const std::string& stream,
                                    const sim::StreamRecord& r) {
  if (r.messagesSent == 0) return stream + " sent nothing";
  if (r.messagesLost != 0 ||
      r.messagesDelivered + r.messagesUnterminated != r.messagesSent) {
    return "FRER lost " + std::to_string(r.messagesLost) + " messages of " +
           stream;
  }
  return "";
}

std::string checkPolicerDropped(const sim::StreamRecord& babbler) {
  if (babbler.framesDroppedPolicer <= 0) {
    return "the policer dropped none of the babbler's frames";
  }
  return "";
}

std::string checkReelected(std::uint64_t grandmaster,
                           std::uint64_t killedIdentity) {
  if (grandmaster == 0) return "no grandmaster elected";
  if (grandmaster == killedIdentity) {
    return "killed node is still the grandmaster";
  }
  return "";
}

std::string checkGptpBooks(const sim::GptpStats& g) {
  if (g.framesSent == 0) return "gPTP sent no frames";
  if (g.framesSent != g.framesDelivered + g.framesDropped + g.framesInFlight) {
    return "gPTP frame books open";
  }
  return "";
}

std::string checkSameDump(const std::string& a, const std::string& b) {
  if (a != b) return "serial and pooled campaign results differ";
  return "";
}

std::string checkValid(const net::Topology& topo,
                       const sched::Schedule& schedule) {
  const std::vector<sched::Violation> v = sched::validate(topo, schedule);
  if (v.empty()) return "";
  return "schedule violates " + v.front().constraint + ": " + v.front().detail;
}

}  // namespace pb
