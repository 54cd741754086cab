// Independent correctness checks.  Each one recomputes what the program's
// output must satisfy from the inputs or from first principles, without
// calling the code that produced the output.  Every check returns an empty
// string when it passes and a description of the first problem otherwise;
// selftest.cpp shows each one failing on a deliberately broken input.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "etsn/etsn.h"
#include "sim/recorder.h"

namespace pb {

/// The compiled GCL of every link opens each TCT queue during each of its
/// slot windows (gate queried at the window's start, middle and last
/// nanosecond), and the queue's total open time per cycle equals the
/// measure of the union of its windows.
std::string checkGclExact(const etsn::net::Topology& topo,
                          const etsn::sched::Schedule& schedule,
                          const etsn::sched::NetworkProgram& program);

/// Total slot repetitions over the hyperperiod (GCL windows before merging).
long long gclWindowCount(const etsn::sched::Schedule& schedule);

/// Every TCT stream's PSFP gate windows cover the arrival interval of each
/// of its hop-0 slots at the first switch.
std::string checkPsfpCovers(const etsn::net::Topology& topo,
                            const etsn::sched::Schedule& schedule,
                            const etsn::net::PsfpConfig& filters);

/// stats::summarize agrees with a sort and nearest-rank recomputation.
std::string checkSummary(const std::vector<etsn::TimeNs>& samples,
                         const etsn::stats::Summary& s);

/// Independent deadline recount: no sample exceeds the deadline and the
/// recorder's miss counter agrees (zero).
std::string checkNoMisses(const std::vector<etsn::TimeNs>& samples,
                          etsn::TimeNs deadline, long long recordedMisses);

/// Frame and message books of one stream close.
std::string checkFrameBooks(const etsn::sim::StreamRecord& r);
/// Message books of a façade result close and samples match deliveries.
std::string checkMessageBooks(const etsn::StreamResult& r);

/// A time-triggered talker emits one message per period: with a first
/// release offset `offset` in [0, 2 * period), the count over a run of
/// `duration` is floor((duration - offset) / period) + 1.  With
/// offset < 0 (unknown) any offset in that range is accepted.
std::string checkTctCount(long long sent, etsn::TimeNs period,
                          etsn::TimeNs duration, etsn::TimeNs offset = -1);

/// Lower bound on a spec's end-to-end latency over any route: its payload
/// serialised on the first link, then at least its last fragment on every
/// further hop of the shortest path, plus propagation.  Header bytes are
/// left out, so the bound never overstates.
etsn::TimeNs latencyLowerBound(const etsn::net::Topology& topo,
                               const etsn::net::StreamSpec& spec);
/// A rejection is justified when the bound exceeds the spec's deadline.
std::string checkRejectionJustified(const etsn::net::Topology& topo,
                                    const etsn::net::StreamSpec& spec);

/// Two runs gave the same latency samples for a stream.
std::string checkSameSamples(const std::string& stream,
                             const std::vector<etsn::TimeNs>& a,
                             const std::vector<etsn::TimeNs>& b);

/// The program's live spec set equals the set replayed from verdicts.
std::string checkSpecSet(
    const std::vector<etsn::net::StreamSpec>& live,
    const std::map<std::string, etsn::net::StreamSpec>& replayed);

/// Every protected (FRER) message was delivered: none lost, and the only
/// undelivered ones were still in flight when the run ended.
std::string checkProtectedDelivered(const std::string& stream,
                                    const etsn::sim::StreamRecord& r);

/// The policer acted on a babbling stream: it dropped some of its frames.
std::string checkPolicerDropped(const etsn::sim::StreamRecord& babbler);

/// The grandmaster elected after a kill is not the killed node.
std::string checkReelected(std::uint64_t grandmaster,
                           std::uint64_t killedIdentity);

/// gPTP frame books close.
std::string checkGptpBooks(const etsn::sim::GptpStats& g);

/// Two campaign dumps are byte-identical.
std::string checkSameDump(const std::string& a, const std::string& b);

/// sched::validate finds no violation.
std::string checkValid(const etsn::net::Topology& topo,
                       const etsn::sched::Schedule& schedule);

}  // namespace pb
