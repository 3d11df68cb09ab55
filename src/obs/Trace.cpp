//===----------------------------------------------------------------------===//
///
/// \file
/// Tracer sinks (unbounded / ring / stream), drop accounting, the binary
/// trace-file format, and event kind names.
///
/// Stream file layout (same-machine, not an interchange format):
///
///   offset 0   char[4]  magic "MTRC"
///   offset 4   u32      format version (currently 1)
///   offset 8   u32      sizeof(TraceEvent) — layout check on load
///   offset 12  u32      reserved (0)
///   offset 16  u64      emitted count  \  patched by flushStream() /
///   offset 24  u64      dropped count  /  the destructor
///   offset 32  TraceEvent[] records
///
/// The counters are written as zero when the file is opened and patched
/// in place on flush/close, so a crash mid-run leaves an obviously
/// incomplete header (emitted == 0 with a non-empty body) rather than a
/// plausible lie.
///
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

using namespace mult;

namespace {

constexpr char StreamMagic[4] = {'M', 'T', 'R', 'C'};
constexpr uint32_t StreamVersion = 1;
constexpr long StreamCountersOffset = 16;
constexpr long StreamHeaderSize = 32;

} // namespace

Tracer::~Tracer() { closeStreamFile(); }

// Out of line so Trace.h does not need the TraceObserver definition on the
// record() fast path.
void Tracer::notifyObserver(const TraceEvent &E) { Observer->onTraceEvent(E); }

void Tracer::recordSlow(const TraceEvent &E) {
  switch (Mode) {
  case TraceSinkMode::Unbounded:
    Events.push_back(E); // record() only forwards Ring/Stream, but stay safe.
    return;
  case TraceSinkMode::Ring:
    if (Events.size() < RingCap) {
      Events.push_back(E);
      return;
    }
    // Full: overwrite the oldest slot. RingHead is the logical start.
    Events[RingHead] = E;
    RingHead = (RingHead + 1) % RingCap;
    ++Dropped;
    return;
  case TraceSinkMode::Stream:
    if (StreamFile && std::fwrite(&E, sizeof(TraceEvent), 1, StreamFile) != 1)
      ++Dropped; // Disk full / IO error: count it, keep running.
    return;
  }
}

const std::vector<TraceEvent> &Tracer::events() const {
  // Linearize the ring so consumers see emission order. Rotating in place
  // and resetting RingHead keeps repeated calls cheap.
  if (Mode == TraceSinkMode::Ring && RingHead != 0) {
    std::rotate(Events.begin(),
                Events.begin() + static_cast<ptrdiff_t>(RingHead),
                Events.end());
    RingHead = 0;
  }
  return Events;
}

void Tracer::clear() {
  Events.clear();
  RingHead = 0;
  Emitted = 0;
  Dropped = 0;
  if (Mode == TraceSinkMode::Stream && StreamFile) {
    // Rewind so the file describes only the next run.
    std::fflush(StreamFile);
    if (::ftruncate(fileno(StreamFile), 0) == 0) {
      std::fseek(StreamFile, 0, SEEK_SET);
      writeStreamHeader();
    }
  }
  // Mode, RingCap, the site table and the resolve-serial counter survive:
  // sites describe the loaded program, and reusing a serial would let a
  // stale stamp on a long-lived future alias a fresh resolve.
}

// Switching sinks starts a fresh recording: the buffered events are
// discarded and the emitted/dropped counters reset, so the invariant
// recorded() + dropped() == emitted() holds within any one sink's
// lifetime (a stream header never claims events it does not contain).

void Tracer::setUnbounded() {
  closeStreamFile();
  Mode = TraceSinkMode::Unbounded;
  RingCap = 0;
  Events.clear();
  RingHead = 0;
  Emitted = 0;
  Dropped = 0;
}

void Tracer::setRingCapacity(size_t N) {
  closeStreamFile();
  Mode = TraceSinkMode::Ring;
  RingCap = N < 1 ? 1 : N;
  Events.clear();
  Events.reserve(RingCap);
  RingHead = 0;
  Emitted = 0;
  Dropped = 0;
}

bool Tracer::openStream(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "wb+");
  if (!F)
    return false;
  closeStreamFile();
  Mode = TraceSinkMode::Stream;
  RingCap = 0;
  Events.clear();
  RingHead = 0;
  Emitted = 0;
  Dropped = 0;
  StreamFile = F;
  StreamPath = Path;
  writeStreamHeader();
  return true;
}

void Tracer::writeStreamHeader() {
  if (!StreamFile)
    return;
  uint32_t Size = static_cast<uint32_t>(sizeof(TraceEvent));
  uint32_t Reserved = 0;
  uint64_t Counts[2] = {Emitted, Dropped};
  std::fwrite(StreamMagic, 1, 4, StreamFile);
  std::fwrite(&StreamVersion, sizeof(uint32_t), 1, StreamFile);
  std::fwrite(&Size, sizeof(uint32_t), 1, StreamFile);
  std::fwrite(&Reserved, sizeof(uint32_t), 1, StreamFile);
  std::fwrite(Counts, sizeof(uint64_t), 2, StreamFile);
}

void Tracer::flushStream() {
  if (Mode != TraceSinkMode::Stream || !StreamFile)
    return;
  long End = std::ftell(StreamFile);
  std::fseek(StreamFile, StreamCountersOffset, SEEK_SET);
  uint64_t Counts[2] = {Emitted, Dropped};
  std::fwrite(Counts, sizeof(uint64_t), 2, StreamFile);
  std::fseek(StreamFile, End, SEEK_SET);
  std::fflush(StreamFile);
}

void Tracer::closeStreamFile() {
  if (!StreamFile)
    return;
  flushStream();
  std::fclose(StreamFile);
  StreamFile = nullptr;
  StreamPath.clear();
}

bool Tracer::configureSink(const std::string &Spec, std::string &Err) {
  if (Spec.empty() || Spec == "unbounded") {
    setUnbounded();
    return true;
  }
  if (Spec.rfind("ring:", 0) == 0) {
    const std::string Num = Spec.substr(5);
    char *EndP = nullptr;
    unsigned long long N = std::strtoull(Num.c_str(), &EndP, 10);
    if (Num.empty() || *EndP != '\0' || N == 0) {
      Err = "bad ring capacity in '" + Spec + "' (want ring:N, N >= 1)";
      return false;
    }
    setRingCapacity(static_cast<size_t>(N));
    return true;
  }
  if (Spec == "stream" || Spec.rfind("stream:", 0) == 0) {
    std::string Path =
        Spec == "stream" ? std::string("mult_trace.bin") : Spec.substr(7);
    if (Path.empty()) {
      Err = "empty stream path in '" + Spec + "'";
      return false;
    }
    if (!openStream(Path)) {
      Err = "cannot open trace stream file '" + Path + "'";
      return false;
    }
    return true;
  }
  Err = "unknown trace sink '" + Spec + "' (want unbounded, ring:N, or "
        "stream[:PATH])";
  return false;
}

uint32_t Tracer::futureSiteId(const void *CodeKey, uint32_t Pc,
                              std::string_view Name) {
  auto [It, Inserted] =
      SiteIds.try_emplace({CodeKey, Pc}, static_cast<uint32_t>(SiteNames.size()));
  if (Inserted) {
    std::string Label(Name.empty() ? std::string_view("<anon>") : Name);
    Label += '+';
    Label += std::to_string(Pc);
    SiteNames.push_back(std::move(Label));
  }
  return It->second;
}

bool mult::readTraceFile(const std::string &Path, TraceFile &Out,
                         std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open '" + Path + "'";
    return false;
  }
  char Magic[4];
  uint32_t Version = 0, Size = 0, Reserved = 0;
  uint64_t Counts[2] = {0, 0};
  bool HeaderOk = std::fread(Magic, 1, 4, F) == 4 &&
                  std::fread(&Version, sizeof(uint32_t), 1, F) == 1 &&
                  std::fread(&Size, sizeof(uint32_t), 1, F) == 1 &&
                  std::fread(&Reserved, sizeof(uint32_t), 1, F) == 1 &&
                  std::fread(Counts, sizeof(uint64_t), 2, F) == 2;
  if (!HeaderOk || std::memcmp(Magic, StreamMagic, 4) != 0) {
    std::fclose(F);
    Err = "'" + Path + "' is not a mult trace file";
    return false;
  }
  if (Version != StreamVersion || Size != sizeof(TraceEvent)) {
    std::fclose(F);
    Err = "'" + Path + "' has an incompatible trace format";
    return false;
  }
  Out.Events.clear();
  Out.Emitted = Counts[0];
  Out.Dropped = Counts[1];
  TraceEvent E;
  while (std::fread(&E, sizeof(TraceEvent), 1, F) == 1)
    Out.Events.push_back(E);
  bool Truncated = !std::feof(F);
  std::fclose(F);
  if (Truncated) {
    Err = "'" + Path + "' ends mid-record (truncated write?)";
    return false;
  }
  if (Out.Emitted == 0 && !Out.Events.empty()) {
    Err = "'" + Path + "' has an unpatched header (crashed writer?)";
    return false;
  }
  (void)StreamHeaderSize;
  return true;
}

const char *mult::traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::TaskCreate: return "task-create";
  case TraceEventKind::TaskStart: return "task-start";
  case TraceEventKind::TaskBlock: return "task-block";
  case TraceEventKind::TaskResume: return "task-resume";
  case TraceEventKind::TaskFinish: return "task-finish";
  case TraceEventKind::TaskStopped: return "task-stopped";
  case TraceEventKind::TaskParked: return "task-parked";
  case TraceEventKind::TaskDropped: return "task-dropped";
  case TraceEventKind::FutureCreate: return "future-create";
  case TraceEventKind::FutureResolve: return "future-resolve";
  case TraceEventKind::TouchHit: return "touch-hit";
  case TraceEventKind::TouchBlock: return "touch-block";
  case TraceEventKind::StealAttempt: return "steal-attempt";
  case TraceEventKind::InlineDecision: return "inline-decision";
  case TraceEventKind::SeamSteal: return "seam-steal";
  case TraceEventKind::GcBegin: return "gc-begin";
  case TraceEventKind::GcEnd: return "gc-end";
  case TraceEventKind::IdleBegin: return "idle-begin";
  case TraceEventKind::IdleEnd: return "idle-end";
  case TraceEventKind::FaultInjected: return "fault-injected";
  case TraceEventKind::ThresholdChange: return "threshold-change";
  case TraceEventKind::PolicyDecision: return "policy-decision";
  case TraceEventKind::ProcKilled: return "proc-killed";
  case TraceEventKind::TaskRecovered: return "task-recovered";
  case TraceEventKind::TaskOrphaned: return "task-orphaned";
  case TraceEventKind::CellRead: return "cell-read";
  case TraceEventKind::CellWrite: return "cell-write";
  case TraceEventKind::SemAcquire: return "sem-acquire";
  case TraceEventKind::SemRelease: return "sem-release";
  case TraceEventKind::CheckpointTaken: return "checkpoint-taken";
  case TraceEventKind::TaskRestored: return "task-restored";
  case TraceEventKind::GroupQuotaStop: return "group-quota-stop";
  case TraceEventKind::GroupBudgetStop: return "group-budget-stop";
  case TraceEventKind::SupervisorRestart: return "supervisor-restart";
  case TraceEventKind::SupervisorGaveUp: return "supervisor-gave-up";
  case TraceEventKind::GroupShed: return "group-shed";
  case TraceEventKind::GroupQueued: return "group-queued";
  case TraceEventKind::GroupAdmitted: return "group-admitted";
  }
  return "unknown";
}
