//===----------------------------------------------------------------------===//
///
/// \file
/// Engine implementation.
///
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "analysis/RaceDetect.h"
#include "lib/Prelude.h"
#include "reader/Reader.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"
#include "vm/Threaded.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace mult;

static Heap::Config heapConfig(const EngineConfig &C) {
  Heap::Config H;
  H.SemispaceWords = C.HeapWords;
  H.ChunkWords = C.ChunkWords;
  H.LargeObjectWords = C.LargeObjectWords;
  H.NumAllocators = C.NumProcessors;
  return H;
}

static CompilerOptions compilerOptions(const EngineConfig &C) {
  CompilerOptions O;
  O.EmitTouchChecks = C.EmitTouchChecks;
  O.OptimizeTouches = C.OptimizeTouches;
  O.IntegratePrims = C.IntegratePrims;
  return O;
}

static AdaptiveTConfig adaptiveConfig(const EngineConfig &C) {
  AdaptiveTConfig A;
  A.Enabled = C.AdaptiveInline;
  A.WindowCycles = C.AdaptiveWindowCycles ? C.AdaptiveWindowCycles : 1;
  A.MinT = C.AdaptiveMinT;
  A.MaxT = std::max(C.AdaptiveMaxT, C.AdaptiveMinT);
  A.Hysteresis = std::max(C.AdaptiveHysteresis, 1u);
  // The static threshold, when set and finite, seeds the adaptive one;
  // otherwise start from the paper's recommended T = 1.
  unsigned Start = C.InlineThreshold ? *C.InlineThreshold : 1u;
  A.StartT = std::clamp(Start, A.MinT, A.MaxT);
  return A;
}

Engine::Engine(const EngineConfig &Config)
    : Cfg(applyEnv(Config)), TheHeap(heapConfig(Cfg)), Syms(TheHeap),
      Builder(TheHeap, Syms), Registry(TheHeap),
      TheCompiler(Builder, Registry, compilerOptions(Cfg)),
      TheGc(TheHeap, Cfg.NumProcessors),
      TheMachine(Cfg.NumProcessors, Cfg.QuantumCycles, Cfg.MaxRunCycles,
                 Cfg.StealPolicy, adaptiveConfig(Cfg)),
      Rng(Cfg.RandomSeed), Telem(Cfg.NumProcessors) {
  // Well-known latency histograms, registered before any recording so
  // their ids are dense and stable. Always on: recording charges no
  // virtual time, so cycle counts are bit-identical either way.
  TelemIds.GcPause = Telem.histogram(
      "gc_pause_cycles", "virtual cycles per GC pause (rendezvous to resume)");
  TelemIds.TouchWait = Telem.histogram(
      "touch_wait_cycles", "virtual cycles a touch blocked until its future "
                           "resolved");
  TelemIds.StealLatency = Telem.histogram(
      "steal_latency_cycles", "virtual cycles a stolen task waited on its "
                              "victim queue (push to steal)");
  TelemIds.SemWait = Telem.histogram(
      "sem_wait_cycles", "virtual cycles a task blocked in semaphore-p until "
                         "the handing-off V");
  TelemIds.TaskLifetime = Telem.histogram(
      "task_lifetime_cycles", "virtual cycles from task creation to finish");
  TelemIds.EvalRequest = Telem.histogram(
      "eval_request_cycles", "virtual cycles per top-level eval request");
  TelemIds.EvalsTotal =
      Telem.counter("eval_requests_total", "top-level eval requests run");
  TelemIds.HostNsPerCycle = Telem.gauge(
      "host_ns_per_virtual_cycle",
      "host nanoseconds (run minus collection) per simulated processor-"
      "cycle (busy + idle, summed over processors) of the last measured run");
  TelemIds.RestartLatency = Telem.histogram(
      "supervisor_restart_latency_cycles",
      "virtual cycles from a supervised group's stop to its restart firing");
  TelemIds.AdmissionWait = Telem.histogram(
      "admission_queue_wait_cycles",
      "virtual cycles a launch waited in the admission queue");
  // Builds without computed goto always run the switch path.
  DispatchThreadedOn =
      Cfg.Dispatch != DispatchMode::Switch && threadedLabels() != nullptr;
  std::string Err;
  TheTracer.setEnabled(Cfg.EnableTracing);
  if (!Cfg.TraceSink.empty() && !TheTracer.configureSink(Cfg.TraceSink, Err))
    std::fprintf(stderr, "mult: ignoring TraceSink: %s\n", Err.c_str());
  RaceDetectOn = Cfg.RaceDetect;
  if (RaceDetectOn) {
    // The checker is a stream consumer, so tracing must be on; it
    // observes events before sink buffering, so even a small ring sink
    // leaves it complete. Charges no virtual time: cycle counts match
    // undetected runs bit for bit.
    RaceDet = std::make_unique<RaceDetector>();
    TheTracer.setEnabled(true);
    TheTracer.setObserver(RaceDet.get());
  }
  bootstrap();
  // Arm faults only after the prelude is in: a plan that fired during
  // bootstrap would make every run start from a poisoned image.
  if (!Cfg.Faults.empty() && !configureFaults(Cfg.Faults, Err))
    std::fprintf(stderr, "mult: ignoring Faults: %s\n", Err.c_str());
  // Site policies name program sites, so sites interned at bootstrap are
  // unaffected (the prelude spawns no futures); load after bootstrap to
  // mirror the fault plan's lifecycle.
  if (!Cfg.SitePolicies.empty() &&
      !SitePolicyTab.loadFile(Cfg.SitePolicies, Err))
    std::fprintf(stderr, "mult: ignoring SitePolicies: %s\n", Err.c_str());
  // Tenant fault domains arm after bootstrap like the fault plan, so the
  // prelude's internal groups are never metered.
  QuotaShards.assign(Cfg.NumProcessors, {});
  if (!Cfg.Supervise.empty() && !configureSupervisor(Cfg.Supervise, Err))
    std::fprintf(stderr, "mult: ignoring Supervise: %s\n", Err.c_str());
  refreshTenantArmed();
}

bool Engine::configureSitePolicies(std::string_view Text, std::string &Err) {
  SitePolicyTable New;
  if (!New.parse(Text, Err))
    return false;
  SitePolicyTab = std::move(New);
  SitePolicyMemo.clear();
  return true;
}

const SitePolicy *Engine::sitePolicyFor(const void *CodeKey, uint32_t Pc,
                                        std::string_view CodeName) {
  auto Key = std::make_pair(CodeKey, Pc);
  auto It = SitePolicyMemo.find(Key);
  if (It != SitePolicyMemo.end())
    return It->second;
  std::string Name(CodeName);
  Name += '+';
  Name += std::to_string(Pc);
  const SitePolicy *P = SitePolicyTab.lookup(Name);
  SitePolicyMemo.emplace(Key, P);
  return P;
}

bool Engine::configureFaults(std::string_view Spec, std::string &Err) {
  FaultPlan Plan;
  if (!FaultPlan::parse(Spec, Plan, Err))
    return false;
  Injector.configure(Plan);
  Injector.arm();
  return true;
}

uint64_t Engine::cellSerial(const Object *Cell) {
  auto [It, Inserted] = CellSerials.try_emplace(Cell, CellSerialCounter + 1);
  if (Inserted)
    ++CellSerialCounter;
  return It->second;
}

void Engine::recordAccessSlow(Processor &P, const Task &T, const Object *Cell,
                              uint32_t Slot, bool IsWrite) {
  if (!TheTracer.enabled())
    return;
  TheTracer.record(IsWrite ? TraceEventKind::CellWrite
                           : TraceEventKind::CellRead,
                   P.Id, P.Clock, cellSerial(Cell), Slot, T.Id);
}

void Engine::preFlip() { remapCellSerials(); }

DecodedCode *Engine::ensureDecoded(const Code *C) {
  if (C->Decoded)
    return C->Decoded;
  DecodedPool.push_back(decodeCode(*C, *threadedLabels()));
  C->Decoded = DecodedPool.back().get();
  return C->Decoded;
}

void Engine::remapWeakCaches() {
  // Runs inside the collection, right before preFlip: copying is done but
  // the semispaces have not flipped, so from-space forwarding headers are
  // still readable. The only weak pointers in the decoded streams are the
  // Call/TailCall inline-cache keys (closure values): patch moved ones
  // through their forwarding pointers, clear dead ones — a cleared cache
  // is just the next miss. Global-cell pointers cached by the decoder are
  // permanent symbols and never move; constants are permanent too.
  for (auto &D : DecodedPool)
    for (DInsn &DI : D->Stream) {
      if ((DI.Opc != Op::Call && DI.Opc != Op::TailCall) || !DI.KBits)
        continue;
      Object *Clo = Value::fromBits(DI.KBits).asObject();
      if (Clo->isPermanent())
        continue;
      if (Clo->isForwarded()) {
        DI.KBits = Value::object(Clo->forwardedTo()).bits();
      } else {
        DI.KBits = 0;
        DI.Ptr = nullptr;
      }
    }
}

void Engine::remapCellSerials() {
  // Copying is done but the semispaces have not flipped yet: live
  // non-permanent cells carry forwarding headers in from-space, permanent
  // cells never move, and everything else is dead and must drop out of
  // the map. This must not run any later — the flip poisons from-space
  // in debug builds, and a heap-growing flip frees it outright.
  if (CellSerials.empty())
    return;
  std::unordered_map<const Object *, uint64_t> New;
  New.reserve(CellSerials.size());
  for (const auto &[Obj, Serial] : CellSerials) {
    if (Obj->isPermanent())
      New.emplace(Obj, Serial);
    else if (Obj->isForwarded())
      New.emplace(Obj->forwardedTo(), Serial);
  }
  CellSerials = std::move(New);
}

void Engine::noteFault(Processor &P, FaultKind Kind, uint64_t Detail) {
  ++Stats.FaultsInjected;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::FaultInjected, P.Id, P.Clock,
                     static_cast<uint64_t>(Kind), Detail,
                     Stats.FaultsInjected);
}

Engine::~Engine() {
  std::string Err;
  if (!Cfg.Telemetry.empty() && !exportTelemetrySpec(Telem, Cfg.Telemetry, Err))
    std::fprintf(stderr, "mult: ignoring Telemetry: %s\n", Err.c_str());
}

void Engine::recordTouchWait(Processor &P, uint32_t Site, uint64_t WaitCycles) {
  Telem.record(TelemIds.TouchWait, P.Id, WaitCycles);
  if (Site == ~uint32_t(0))
    return;
  // Per-site child histogram, registered on the site's first blocked
  // touch. Site interning order is deterministic (virtual-time
  // simulation), so the registry layout is too.
  if (Site >= SiteTouchHists.size())
    SiteTouchHists.resize(Site + 1, Telemetry::InvalidId);
  if (SiteTouchHists[Site] == Telemetry::InvalidId) {
    const std::vector<std::string> &Names = TheTracer.siteNames();
    std::string Name =
        Site < Names.size() ? Names[Site] : strFormat("site-%u", Site);
    SiteTouchHists[Site] = Telem.histogram(
        "touch_wait_cycles", "virtual cycles a touch blocked until its future "
                             "resolved",
        "site", Name);
  }
  Telem.record(SiteTouchHists[Site], P.Id, WaitCycles);
}

//===----------------------------------------------------------------------===//
// Bootstrap
//===----------------------------------------------------------------------===//

void Engine::installPrimitiveWrappers() {
  // Give every primitive a closure binding so primitive names work as
  // first-class values, e.g. (map car lst) or (apply + xs).
  //
  // Fixed-arity open-coded primitives get compiled eta-expansions; called
  // primitives (and the n-ary arithmetic, via the hidden %+ %- %* prims)
  // get hand-built variadic wrappers whose body is one PrimApplyVar.
  struct EtaSpec {
    std::string Name;
    int Arity;
  };
  std::vector<EtaSpec> Etas;
  static const char *FixedFastOps[] = {
      "car", "cdr", "cons", "quotient", "remainder",
      "<", "<=", ">", ">=", "=", "eq?", "null?", "pair?", "not",
      "set-car!", "set-cdr!", "vector-ref", "vector-set!",
      "vector-length"};
  for (const char *Name : FixedFastOps) {
    auto Fast = lookupFastOp(Name);
    assert(Fast && "fast op missing from table");
    Etas.push_back({Name, Fast->Arity});
  }
  Etas.push_back({"touch", 1});

  for (const EtaSpec &W : Etas) {
    std::string Params, Call;
    for (int I = 0; I < W.Arity; ++I) {
      Params += strFormat(" x%d", I);
      Call += strFormat(" x%d", I);
    }
    std::string Src =
        strFormat("(lambda (%s) (%s%s))", Params.c_str(), W.Name.c_str(),
                  Call.c_str());
    Reader Rd(Builder, Src);
    ReadResult RR = Rd.read();
    assert(RR.ok() && "wrapper source must parse");
    Compiler::Result CR = TheCompiler.compile(RR.Datum);
    assert(CR.ok() && "wrapper source must compile");
    // The compiled top level is [Closure tpl 0; Return]; extract the
    // template and build the (capture-free) closure in the static area.
    const Insn *ClosureInsn = nullptr;
    for (const Insn &I : CR.TopCode->Insns)
      if (I.Opcode == Op::Closure) {
        ClosureInsn = &I;
        break;
      }
    assert(ClosureInsn && ClosureInsn->B == 0 && "unexpected wrapper shape");
    Value Tpl =
        CR.TopCode->Constants[static_cast<size_t>(ClosureInsn->A)];
    Object *Clo = TheHeap.allocatePermanent(TypeTag::Closure, 1);
    Clo->setSlot(0, Tpl);
    Syms.intern(W.Name)->setGlobalValue(Value::object(Clo));
  }

  // Variadic wrappers. Names starting with % are internal and get no
  // binding; + - * bind to the %-prefixed n-ary equivalents.
  auto InstallVariadic = [&](const char *GlobalName, PrimId Id) {
    Code *C = Registry.create(std::string(GlobalName) + "-wrapper");
    C->Variadic = true;
    C->MaxFrameWords = 8;
    C->Insns.push_back(Insn{Op::PrimApplyVar, static_cast<int32_t>(Id), 0});
    C->Insns.push_back(Insn{Op::Return, 0, 0});
    Object *Clo = TheHeap.allocatePermanent(TypeTag::Closure, 1);
    Clo->setSlot(0, Registry.templateFor(C));
    Syms.intern(GlobalName)->setGlobalValue(Value::object(Clo));
  };
#define MULT_PRIM_WRAP(Id, Name, Min, Max, Cost)                               \
  if ((Name)[0] != '%')                                                        \
    InstallVariadic(Name, PrimId::Id);
  MULT_PRIM_LIST(MULT_PRIM_WRAP)
#undef MULT_PRIM_WRAP
  InstallVariadic("+", PrimId::AddN);
  InstallVariadic("-", PrimId::SubN);
  InstallVariadic("*", PrimId::MulN);
}

void Engine::bootstrap() {
  installPrimitiveWrappers();
  if (!Cfg.LoadPrelude)
    return;
  Bootstrapping = true;
  EvalResult R = eval(PreludeSource);
  Bootstrapping = false;
  if (!R.ok()) {
    console() << "fatal: prelude failed to load: " << R.Error << '\n';
    assert(false && "prelude failed to load");
  }
  takeOutput();
  resetStats();
}

//===----------------------------------------------------------------------===//
// Tasks and groups
//===----------------------------------------------------------------------===//

Task &Engine::task(TaskId Id) {
  uint32_t Idx = taskIndex(Id);
  assert(Idx < Tasks.size() && TaskGens[Idx] == taskGeneration(Id) &&
         "stale task id");
  return *Tasks[Idx];
}

Task *Engine::liveTask(TaskId Id) {
  uint32_t Idx = taskIndex(Id);
  if (Idx >= Tasks.size() || TaskGens[Idx] != taskGeneration(Id))
    return nullptr;
  Task *T = Tasks[Idx].get();
  return T->State == TaskState::Done ? nullptr : T;
}

Task *Engine::taskByIndex(uint32_t Idx) {
  if (Idx >= Tasks.size())
    return nullptr;
  Task *T = Tasks[Idx].get();
  return (T && T->State != TaskState::Done) ? T : nullptr;
}

Group &Engine::group(GroupId Id) {
  assert(Id < Groups.size() && "bad group id");
  return Groups[Id];
}

Group *Engine::findGroup(GroupId Id) {
  return Id < Groups.size() ? &Groups[Id] : nullptr;
}

TaskId Engine::newEmptyTask(GroupId G, unsigned Proc) {
  uint32_t Idx;
  if (!FreeTaskSlots.empty()) {
    Idx = FreeTaskSlots.back();
    FreeTaskSlots.pop_back();
    ++TaskGens[Idx];
  } else {
    Idx = static_cast<uint32_t>(Tasks.size());
    Tasks.push_back(std::make_unique<Task>());
    TaskGens.push_back(0);
  }
  Task &T = *Tasks[Idx];
  T.clearForRecycle();
  T.Id = makeTaskId(Idx, TaskGens[Idx]);
  T.Group = G;
  T.State = TaskState::Ready;
  T.LastProc = Proc;
  if (G != InvalidGroup)
    group(G).Members.push_back(T.Id);
  return T.Id;
}

TaskId Engine::newTask(GroupId G, Value Closure, Value ResultFuture,
                       Value DynEnv, unsigned Proc, TaskId Parent) {
  TaskId Id = newEmptyTask(G, Proc);
  Task &T = task(Id);
  T.initForThunk(Id, G, Closure, ResultFuture, DynEnv, Proc);
  T.CreateClock = TheMachine.processor(Proc).Clock;
  T.FutureSite = ~uint32_t(0);
  ++Stats.TasksCreated;
  if (G != InvalidGroup)
    ++group(G).TasksCreated;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::TaskCreate, Proc,
                     TheMachine.processor(Proc).Clock, Id, G, Parent);
  return Id;
}

void Engine::finishTask(Task &T) {
  uint32_t Idx = taskIndex(T.Id);
  if (T.Group != InvalidGroup)
    group(T.Group).Checkpoints.erase(Idx); // record can never be restored now
  T.clearForRecycle();
  FreeTaskSlots.push_back(Idx);
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

Object *Engine::tryAlloc(Processor &P, TypeTag Tag, uint32_t SizeWords,
                         uint64_t &Cycles, uint8_t Flags) {
  if (Injector.armed() && Injector.fires(FaultKind::AllocFail)) {
    // Behaves exactly like a full heap: the VM requests a collection and
    // retries the instruction, which succeeds (the injector marks the
    // failure so the machine's exhaustion heuristics ignore this round).
    noteFault(P, FaultKind::AllocFail, SizeWords);
    Cycles += heapcost::ChunkBump;
    return nullptr;
  }
  // Owner tag for tenant quota accounting: stamp the allocating group into
  // the header's spare halfword so the collector can tile live words per
  // group exactly. Computing it is a dormant bool test when quotas are off.
  uint16_t Aux = 0;
  if (TenantOn && !Bootstrapping && P.Current != InvalidTask) {
    GroupId Gid = task(P.Current).Group;
    if (Gid != InvalidGroup && Gid < Groups.size() && !Groups[Gid].Internal &&
        Gid + 1 <= 0xffff)
      Aux = static_cast<uint16_t>(Gid + 1);
  }
  Heap::AllocResult R =
      TheHeap.allocate(P.Id, P.Clock, Tag, SizeWords, Flags, Aux);
  Cycles += R.Cycles;
  if (Aux && R.Obj) {
    // Perfbook-style sharded charge: a private per-processor counter bump
    // on the hot path, flushed to the group at a coarse threshold and
    // exact-merged from the survivor tally at every collection.
    std::vector<uint64_t> &Shard = QuotaShards[P.Id];
    if (Shard.size() < Groups.size())
      Shard.resize(Groups.size(), 0);
    uint64_t &S = Shard[Aux - 1];
    S += R.Obj->totalWords();
    constexpr uint64_t kQuotaShardFlush = 1024;
    if (S >= kQuotaShardFlush) {
      Groups[Aux - 1].AllocWords += S;
      S = 0;
    }
  }
  return R.Obj;
}

Object *Engine::allocOrGc(TypeTag Tag, uint32_t SizeWords, uint8_t Flags) {
  Processor &P0 = TheMachine.homeFor(0);
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    Heap::AllocResult R =
        TheHeap.allocate(P0.Id, P0.Clock, Tag, SizeWords, Flags);
    P0.charge(R.Cycles);
    if (R.Obj)
      return R.Obj;
    if (!collectGarbage())
      return nullptr;
  }
  return nullptr;
}

bool Engine::collectGarbage() {
  HostPhaseTimer HostGc(Telem, Telemetry::Phase::Gc);
  std::vector<uint64_t> Clocks = TheMachine.clocks();
  std::vector<uint64_t> Before = Clocks;
  bool Ok = TheGc.collect(*this, Clocks);
  if (Ok) {
    // The pause distribution, not just the running total (the collection
    // already updated Gc::Stats). Shard 0: a collection is machine-wide.
    Telem.record(TelemIds.GcPause, 0, TheGc.stats().Last.PauseCycles);
    TheMachine.setClocks(Clocks);
    // Each processor's pause (from interruption to the common resume
    // clock) is GC time; together with busy and idle cycles this tiles
    // the processor clock exactly.
    for (unsigned I = 0; I < TheMachine.numProcessors(); ++I) {
      Processor &P = TheMachine.processor(I);
      P.GcCycles += Clocks[I] - Before[I];
      if (TheTracer.enabled()) {
        TheTracer.record(TraceEventKind::GcBegin, I, Before[I]);
        TheTracer.record(TraceEventKind::GcEnd, I, Clocks[I]);
      }
    }
    if (TenantOn) {
      // Exact merge of the quota accounts: the survivor tally replaces
      // the allocation-charged upper bound (whatever was charged since
      // the last collection either got copied — and tallied — or was
      // garbage), so a group is only ever stopped for words it truly
      // holds live.
      for (size_t I = 0; I < Groups.size(); ++I) {
        Group &G = Groups[I];
        G.LiveWords = I < LiveTally.size() ? LiveTally[I] : 0;
        G.AllocWords = 0;
        if (!G.HeapQuotaWords || G.LiveWords <= G.HeapQuotaWords)
          G.QuotaGraceUsed = false;
      }
      for (std::vector<uint64_t> &Shard : QuotaShards)
        std::fill(Shard.begin(), Shard.end(), 0);
    }
    // Proc-kills that fired inside the collection (pollGcKill): the
    // collector already finished the victims' copy work on survivors;
    // with the heap whole again, perform the machine-level fail-stop and
    // the usual recovery. The victims' scanned tasks survived the
    // collection, so restore/re-spawn sees fresh to-space state.
    if (!PendingGcKills.empty()) {
      std::vector<PendingGcKill> Kills;
      Kills.swap(PendingGcKills);
      for (const PendingGcKill &K : Kills) {
        Processor &Dead = TheMachine.processor(K.Victim);
        if (Dead.Dead)
          continue;
        Dead.Dead = true;
        if (Dead.TraceIdling) {
          Dead.TraceIdling = false;
          if (TheTracer.enabled())
            TheTracer.record(TraceEventKind::IdleEnd, Dead.Id, Dead.Clock);
        }
        Processor &Obs = TheMachine.homeFor(K.Victim);
        noteFault(Obs, FaultKind::ProcKill, K.Victim);
        recoverProcessor(Obs, Dead, TheMachine.runStartClock() + K.Mark);
      }
    }
  } else {
    PendingGcKills.clear();
  }
  return Ok;
}

bool Engine::pollGcKill(uint64_t Clock, unsigned &Victim) {
  // Fault marks are run-relative; a collection triggered outside a run
  // (allocOrGc from a setup path) has no run clock to poll against.
  if (!Injector.armed() || !TheMachine.inRun())
    return false;
  uint64_t Start = TheMachine.runStartClock();
  uint64_t Rel = Clock > Start ? Clock - Start : 0;
  FaultEntry M;
  if (!Injector.takeMark(FaultKind::ProcKill, Rel, M) ||
      !canFailStop(unsigned(M.Arg)))
    return false;
  PendingGcKills.push_back({unsigned(M.Arg), M.Key});
  Victim = unsigned(M.Arg);
  return true;
}

bool Engine::canFailStop(unsigned Victim) const {
  if (Victim >= TheMachine.numProcessors() ||
      TheMachine.processor(Victim).Dead)
    return false;
  for (const PendingGcKill &K : PendingGcKills)
    if (K.Victim == Victim)
      return false;
  return TheMachine.liveProcessors() > PendingGcKills.size() + 1;
}

//===----------------------------------------------------------------------===//
// GC roots
//===----------------------------------------------------------------------===//

namespace {
/// Root-segment partition sizes, cached between numRootSegments and the
/// scanRootSegment calls of one collection.
struct SegmentPlan {
  unsigned StaticSegs = 1;
  unsigned TaskSegs = 1;
};
SegmentPlan CurrentPlan;
} // namespace

unsigned Engine::numRootSegments() {
  // Fine segmentation lets the collectors share root scanning: one
  // segment should carry only a handful of user globals (the paper's
  // static area was "divided into segments" for exactly this reason).
  size_t StaticN = TheHeap.staticAreaSize();
  size_t TaskN = Tasks.size();
  CurrentPlan.StaticSegs = static_cast<unsigned>(
      std::clamp<size_t>(StaticN / 48, 1, 256));
  CurrentPlan.TaskSegs =
      static_cast<unsigned>(std::clamp<size_t>(TaskN / 16, 1, 128));
  // A fresh live-words tally per collection (committed by collectGarbage).
  if (TenantOn)
    LiveTally.assign(Groups.size(), 0);
  return CurrentPlan.StaticSegs + CurrentPlan.TaskSegs + 1;
}

void Engine::noteLiveObject(uint16_t Aux, uint32_t TotalWords) {
  if (Aux && size_t(Aux - 1) < LiveTally.size())
    LiveTally[Aux - 1] += TotalWords;
}

void Engine::scanTask(Task &T, const RootVisitor &Visit) {
  for (Value &V : T.Stack)
    Visit(V);
  Visit(T.BlockedOn);
  Visit(T.DynEnv);
  Visit(T.ResultFuture);
  Visit(T.WakeValue);
  Visit(T.SpawnClosure);
  Visit(T.SpawnDynEnv);
  for (Frame &F : T.Frames)
    Visit(F.SeamFuture);
}

void Engine::scanRootSegment(unsigned Segment, const RootVisitor &Visit) {
  if (Segment < CurrentPlan.StaticSegs) {
    auto [Begin, End] =
        TheHeap.staticAreaSegment(Segment, CurrentPlan.StaticSegs);
    for (size_t I = Begin; I < End; ++I) {
      Object *O = TheHeap.staticAreaObject(I);
      for (uint32_t K = 0, N = O->sizeWords(); K < N; ++K) {
        Value V = O->slot(K);
        Visit(V);
        O->setSlot(K, V);
      }
    }
    return;
  }
  Segment -= CurrentPlan.StaticSegs;
  if (Segment < CurrentPlan.TaskSegs) {
    size_t N = Tasks.size();
    size_t Begin = N * Segment / CurrentPlan.TaskSegs;
    size_t End = N * (Segment + 1) / CurrentPlan.TaskSegs;
    for (size_t I = Begin; I < End; ++I)
      scanTask(*Tasks[I], Visit);
    return;
  }
  // Miscellaneous engine roots: the run's launches first, so a collection
  // copies their root futures before anything else.
  for (Launch &L : Launches)
    Visit(L.RootFuture);
  for (Group &G : Groups) {
    Visit(G.RootFuture);
    // Checkpoint records must survive collections for as long as a
    // member task might still be restored from them.
    for (auto &Entry : G.Checkpoints) {
      CheckpointRecord &R = Entry.second;
      for (Value &V : R.Stack)
        Visit(V);
      Visit(R.DynEnv);
      for (Frame &F : R.Frames)
        Visit(F.SeamFuture);
    }
  }
}

void Engine::scanProcessorRoots(unsigned Proc, const RootVisitor &Visit) {
  Processor &P = TheMachine.processor(Proc);
  if (P.Current == InvalidTask)
    return;
  scanTask(task(P.Current), Visit);
}

//===----------------------------------------------------------------------===//
// Group stop / resume / kill
//===----------------------------------------------------------------------===//

void Engine::stopGroup(Processor &P, Task &T, std::string Condition,
                       uint32_t StopPop) {
  Group &G = group(T.Group);
  // A future can outlive its group's root; its stop reopens the finished
  // group, so the breakloop can still reach it.
  bool Edge = G.State == GroupState::Running || G.State == GroupState::Done;
  T.State = TaskState::Stopped;
  T.StopCondition = Condition;
  T.StopPop = StopPop;
  T.StopRestartable = false;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::TaskStopped, P.Id, P.Clock, T.Id);
  if (Edge) {
    G.State = GroupState::Stopped;
    G.CurrentTask = T.Id;
    G.Condition = Condition;
    StoppedStack.push_back(G.Id);
  }

  // The per-processor exception-handler server task runs (paper
  // section 2.3): it coordinates with the scheduler so no other task of
  // the group runs, then hands the terminal to the terminal server.
  // Members currently on a processor are suspended right here; queued
  // members are parked lazily when a dispatch pops them.
  for (unsigned I = 0; I < TheMachine.numProcessors(); ++I) {
    Processor &Other = TheMachine.processor(I);
    if (Other.Current == InvalidTask || Other.Current == T.Id)
      continue;
    Task *Sibling = liveTask(Other.Current);
    if (!Sibling || Sibling->Group != T.Group)
      continue;
    Sibling->State = TaskState::Stopped;
    G.Parked.push_back(Sibling->Id);
    Other.Current = InvalidTask;
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::TaskStopped, Other.Id, Other.Clock,
                       Sibling->Id);
  }
  ++P.HandlerActivations;
  P.charge(cost::GroupStop);
  P.charge(TermLock.acquire(P.Clock, cost::TerminalLockHold));
  // Only the edge into Stopped can end a launch: a sibling orphan joining
  // an already-stopped group is not a second edge, and a finished group
  // has no open launch.
  if (Edge)
    onGroupStopped(P.Id, P.Clock, G.Id);
}

void Engine::stopGroupRestartable(Processor &P, Task &T,
                                  std::string Condition) {
  stopGroup(P, T, std::move(Condition), 0);
  T.StopRestartable = true;
}

std::vector<GroupId> Engine::stoppedGroups() const {
  std::vector<GroupId> Out;
  for (const Group &G : Groups)
    if (G.State == GroupState::Stopped)
      Out.push_back(G.Id);
  return Out;
}

EvalResult Engine::resumeGroup(GroupId Id, Value ResumeValue) {
  EvalResult R;
  Group *G = findGroup(Id);
  if (!G || G->State != GroupState::Stopped) {
    R.K = EvalResult::Kind::RuntimeError;
    R.Error = "resume: group is not stopped";
    return R;
  }

  // Resume the signalling task: the erring operation completes with the
  // user-supplied value.
  if (Task *T = Tasks[taskIndex(G->CurrentTask)].get();
      T && T->Id == G->CurrentTask && T->State == TaskState::Stopped) {
    if (T->StopRestartable) {
      // The faulting instruction never executed; just make the task
      // runnable again and let it re-run from the same pc.
      T->StopRestartable = false;
    } else {
      T->HasWakeAction = true;
      T->WakePop = T->StopPop;
      T->WakeValue = ResumeValue;
    }
    T->State = TaskState::Ready;
    Processor &Home = TheMachine.homeFor(T->LastProc);
    Home.Queues.pushSuspended(T->Id, Home.Clock);
  }
  for (TaskId Parked : G->Parked) {
    if (Task *T = liveTask(Parked); T && T->State == TaskState::Stopped) {
      T->State = TaskState::Ready;
      Processor &Home = TheMachine.homeFor(T->LastProc);
      Home.Queues.pushSuspended(T->Id, Home.Clock);
    }
  }
  G->Parked.clear();
  // A group stopped after its root resolved resumes finished: its launch
  // has nothing to wait for, and the resumed tasks run with later runs.
  G->State = G->RootResolved ? GroupState::Done : GroupState::Running;
  StoppedStack.erase(
      std::remove(StoppedStack.begin(), StoppedStack.end(), Id),
      StoppedStack.end());
  return runTopLevelLaunch(Id);
}

void Engine::killGroup(GroupId Id) {
  Group *G = findGroup(Id);
  if (!G || G->State == GroupState::Killed)
    return;
  G->State = GroupState::Killed;
  for (TaskId Member : G->Members) {
    uint32_t Idx = taskIndex(Member);
    if (Idx >= Tasks.size() || TaskGens[Idx] != taskGeneration(Member))
      continue;
    Task &T = *Tasks[Idx];
    if (T.State == TaskState::Done)
      continue;
    // Detach from any processor.
    for (unsigned P = 0; P < TheMachine.numProcessors(); ++P)
      if (TheMachine.processor(P).Current == Member)
        TheMachine.processor(P).Current = InvalidTask;
    finishTask(T);
  }
  G->Parked.clear();
  StoppedStack.erase(
      std::remove(StoppedStack.begin(), StoppedStack.end(), Id),
      StoppedStack.end());
  finalizeLaunch(Id);
}

//===----------------------------------------------------------------------===//
// Tenant fault domains: quotas, supervision, admission control
//===----------------------------------------------------------------------===//

bool Engine::configureQuota(std::string_view Spec, std::string &Err) {
  if (!parseQuota(Spec, Cfg, Err))
    return false;
  // Any spec but "off" arms the layer, even one of zero limits.
  TenantOn = SuperviseOn || trim(Spec) != "off";
  return true;
}

bool Engine::configureSupervisor(std::string_view Spec, std::string &Err) {
  std::string_view S = trim(Spec);
  if (S == "off") {
    SuperviseOn = false;
    refreshTenantArmed();
    return true;
  }
  Supervisor::Policy Pol;
  if (!Supervisor::parsePolicy(S, Pol, Err))
    return false;
  Super.setDefaultPolicy(Pol);
  SuperviseOn = true;
  TenantOn = true;
  return true;
}

void Engine::refreshTenantArmed() {
  TenantOn = SuperviseOn || Cfg.GroupHeapQuotaWords || Cfg.GroupCycleBudget ||
             Cfg.MaxLiveGroups || Cfg.MaxQueuedGroups;
}

void Engine::applyTenantDefaults(Group &G) {
  if (!TenantOn || G.Internal)
    return;
  G.HeapQuotaWords = Cfg.GroupHeapQuotaWords;
  G.CycleBudget = Cfg.GroupCycleBudget;
}

uint64_t Engine::groupHeapAccount(GroupId Id) const {
  if (Id >= Groups.size())
    return 0;
  const Group &G = Groups[Id];
  uint64_t Acct = G.LiveWords + G.AllocWords;
  for (const std::vector<uint64_t> &Shard : QuotaShards)
    if (Id < Shard.size())
      Acct += Shard[Id];
  return Acct;
}

void Engine::chargeGroupCycles(const Task &T, uint64_t BusyDelta) {
  if (T.Group == InvalidGroup || T.Group >= Groups.size())
    return;
  Group &G = Groups[T.Group];
  if (!G.Internal)
    G.CyclesUsed += BusyDelta;
}

bool Engine::pollTenant(Processor &P, Task &T) {
  if (T.Group == InvalidGroup || T.Group >= Groups.size())
    return false;
  Group &G = Groups[T.Group];
  if (G.Internal || G.State != GroupState::Running)
    return false;
  if (G.CycleBudget && G.CyclesUsed > G.CycleBudget) {
    ++Stats.BudgetStops;
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::GroupBudgetStop, P.Id, P.Clock, G.Id,
                       G.CyclesUsed, G.CycleBudget);
    stopGroupRestartable(
        P, T,
        strFormat("group-cycle-budget: group %u (\"%s\") used %llu of %llu "
                  "budgeted cycles",
                  G.Id, G.Banner.c_str(), (unsigned long long)G.CyclesUsed,
                  (unsigned long long)G.CycleBudget));
    return true;
  }
  if (!G.HeapQuotaWords)
    return false;
  uint64_t Acct = groupHeapAccount(G.Id);
  if (Acct <= G.HeapQuotaWords)
    return false;
  if (!G.QuotaGraceUsed) {
    // The account is allocation-charged, an upper bound on live: grant one
    // free collection so garbage never trips a quota. The merge makes the
    // account exact; only truly held words are judged below.
    G.QuotaGraceUsed = true;
    ++Stats.QuotaGraceGcs;
    if (collectGarbage()) {
      Acct = groupHeapAccount(G.Id);
      if (Acct <= G.HeapQuotaWords)
        return false; // garbage, not live data: the merge cleared the flag
      G.QuotaGraceUsed = true;
    }
    // A wedged collector cannot refine the account; judge it as it stands.
  }
  ++Stats.QuotaStops;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::GroupQuotaStop, P.Id, P.Clock, G.Id,
                     Acct, G.HeapQuotaWords);
  stopGroupRestartable(
      P, T,
      strFormat("group-heap-quota: group %u (\"%s\") holds ~%llu live words "
                "of %llu quota",
                G.Id, G.Banner.c_str(), (unsigned long long)Acct,
                (unsigned long long)G.HeapQuotaWords));
  return true;
}

Engine::Launch *Engine::openLaunch(GroupId Gid) {
  for (Launch &L : Launches)
    if (L.Gid == Gid && !L.Terminal)
      return &L;
  return nullptr;
}

namespace {
/// True when a stop condition names a heap exhaustion.
bool isHeapCondition(const std::string &Condition) {
  return Condition.compare(0, 14, "heap-exhausted") == 0;
}
} // namespace

void Engine::onGroupStopped(unsigned ProcId, uint64_t Clock, GroupId Gid) {
  Launch *L = openLaunch(Gid);
  if (!L)
    return;
  Group &G = Groups[Gid];
  if (isHeapCondition(G.Condition))
    L->Heap = heapFacts();
  if (L->Gated && SuperviseOn) {
    switch (Super.onGroupStopped(Gid, Clock, G.Banner, G.Condition)) {
    case Supervisor::Verdict::RestartScheduled:
      return; // not terminal: the launch stays outstanding until it fires
    case Supervisor::Verdict::GaveUp:
      G.Condition = "supervisor-gave-up: " + G.Condition;
      ++Stats.SupervisorGaveUp;
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::SupervisorGaveUp, ProcId, Clock,
                         Gid, Super.restartsTaken(Gid), 0);
      break;
    case Supervisor::Verdict::Escalate:
      ++Stats.SupervisorEscalations;
      Escalated = true;
      break;
    case Supervisor::Verdict::LeaveStopped:
      break;
    }
  }
  finalizeLaunch(Gid);
}

void Engine::finalizeLaunch(GroupId Gid) {
  Launch *L = openLaunch(Gid);
  if (!L)
    return;
  L->Terminal = true;
  if (L->Admitted && LiveLaunches)
    --LiveLaunches;
  if (OpenLaunches)
    --OpenLaunches;
  drainAdmissions();
}

void Engine::drainAdmissions() {
  // Admitting a queued launch is one queue push — the task, group and
  // future were all created at evalGroups time, so this never allocates
  // no matter how deep in the scheduler the freed slot appeared.
  while (AdmitHead < AdmitQueue.size() &&
         (Cfg.MaxLiveGroups == 0 || LiveLaunches < Cfg.MaxLiveGroups)) {
    Launch &L = Launches[AdmitQueue[AdmitHead++]];
    if (L.Terminal)
      continue;
    Task *T = liveTask(L.RootTask);
    if (!T) {
      L.Terminal = true;
      if (OpenLaunches)
        --OpenLaunches;
      continue;
    }
    L.Admitted = true;
    ++LiveLaunches;
    ++Stats.GroupsAdmitted;
    Processor &Home = TheMachine.homeFor(T->LastProc);
    Home.Queues.pushNew(L.RootTask, Home.Clock);
    uint64_t Wait = Home.Clock > L.EnqueuedAt ? Home.Clock - L.EnqueuedAt : 0;
    Telem.record(TelemIds.AdmissionWait, Home.Id, Wait);
    Super.note(strFormat("admit: group %u \"%s\" from queue", L.Gid,
                         Groups[L.Gid].Banner.c_str()));
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::GroupAdmitted, Home.Id, Home.Clock,
                       L.Gid, Wait, 0);
  }
}

void Engine::supervisorTick(Processor &P) {
  if (!SuperviseOn)
    return;
  GroupId Gid;
  unsigned Attempt;
  uint64_t StopClock;
  while (Super.takeDue(P.Clock, Gid, Attempt, StopClock)) {
    if (Gid >= Groups.size() || Groups[Gid].State != GroupState::Stopped)
      continue; // shed, killed or resumed since the stop: the event is moot
    if (supervisorRestartGroup(P, Gid)) {
      ++Stats.SupervisorRestarts;
      Telem.record(TelemIds.RestartLatency, P.Id,
                   P.Clock > StopClock ? P.Clock - StopClock : 0);
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::SupervisorRestart, P.Id, P.Clock,
                         Gid, Attempt, 0);
    } else {
      Group &G = Groups[Gid];
      Super.note(strFormat("gave-up: group %u \"%s\" (no restartable state)",
                           Gid, G.Banner.c_str()));
      G.Condition =
          "supervisor-gave-up: no restartable state (" + G.Condition + ")";
      ++Stats.SupervisorGaveUp;
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::SupervisorGaveUp, P.Id, P.Clock,
                         Gid, Attempt, 0);
      finalizeLaunch(Gid);
    }
  }
}

bool Engine::nextSupervisorEvent(uint64_t &Due) const {
  if (!SuperviseOn)
    return false;
  return Super.nextEventClock(Due);
}

void Engine::restoreFromCheckpoint(Processor &P, Task &T,
                                   const CheckpointRecord &R, Processor &Home,
                                   uint64_t Cause) {
  // Only the busy cycles since the capture were lost, so the recovery
  // charge is budgeted to that delta — which the capture policy bounds by
  // CheckpointEvery + one quantum. The record stays in place: a second
  // restore before the next capture re-restores the same snapshot.
  uint64_t LostDelta = T.SinceCheckpoint;
  T.State = TaskState::Ready;
  T.LastProc = Home.Id;
  T.Stack = R.Stack;
  T.Frames = R.Frames;
  T.CurCode = R.CurCode;
  T.Pc = R.Pc;
  T.DynEnv = R.DynEnv;
  T.BlockedOn = Value::nil();
  T.HasWakeAction = false;
  T.WakePop = 0;
  T.WakeValue = Value::nil();
  T.StopCondition.clear();
  T.StopPop = 0;
  T.StopRestartable = false;
  T.UnstolenSeams = 0; // capture eligibility guarantees none
  T.BaseFrame = 0;
  T.SemaphoresHeld = R.SemaphoresHeld;
  T.DidIo = R.DidIo;
  T.SinceCheckpoint = 0;
  T.RecoveryCharged = 0;
  T.RecoveryBudget = LostDelta;
  T.Recovered = LostDelta > 0;
  Home.Queues.pushNew(T.Id, Home.Clock);
  ++Stats.TasksRestored;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::TaskRestored, P.Id, P.Clock, T.Id,
                     Home.Id, Cause);
}

bool Engine::supervisorRestartGroup(Processor &P, GroupId Gid) {
  Group &G = Groups[Gid];
  Task *T = liveTask(G.CurrentTask);
  if (!T || T->State != TaskState::Stopped)
    return false;
  Processor &Home = TheMachine.homeFor(T->LastProc);
  if (T->StopRestartable) {
    // The faulting instruction never executed (quota/budget stops always
    // land here): make the task runnable again at the same pc.
    T->StopRestartable = false;
    T->State = TaskState::Ready;
    Home.Queues.pushSuspended(T->Id, Home.Clock);
  } else {
    auto It = G.Checkpoints.find(taskIndex(T->Id));
    if (It == G.Checkpoints.end() || It->second.Epoch != T->SideEffectEpoch)
      return false;
    // Restore from the newest epoch-valid checkpoint record, exactly as
    // fail-stop recovery does.
    restoreFromCheckpoint(P, *T, It->second, Home, Gid);
  }
  for (TaskId Parked : G.Parked) {
    if (Task *PT = liveTask(Parked); PT && PT->State == TaskState::Stopped) {
      PT->State = TaskState::Ready;
      Processor &PHome = TheMachine.homeFor(PT->LastProc);
      PHome.Queues.pushSuspended(PT->Id, PHome.Clock);
    }
  }
  G.Parked.clear();
  G.State = GroupState::Running;
  G.Condition.clear();
  // A restart opens a fresh envelope: the cycle budget and the quota
  // grace collection both reset. The heap account does not — live words
  // are facts, and a group restarted over quota will trip again (and
  // eventually exhaust its restarts) unless it frees memory.
  G.CyclesUsed = 0;
  G.QuotaGraceUsed = false;
  StoppedStack.erase(
      std::remove(StoppedStack.begin(), StoppedStack.end(), Gid),
      StoppedStack.end());
  return true;
}

void Engine::applyQuotaSqueeze(Processor &P, unsigned Gid) {
  // A plan's group id is authored against one program; when it names no
  // live user group (REPL group ids drift with the prelude), fall back to
  // the lowest-id running user group so the clause still bites — the
  // choice is a pure function of group state at the clause's mark, so
  // replays stay bit-identical.
  if (Gid >= Groups.size() || Groups[Gid].Internal ||
      (Groups[Gid].State != GroupState::Running &&
       Groups[Gid].State != GroupState::Stopped)) {
    Gid = InvalidGroup;
    for (GroupId I = 0; I < Groups.size(); ++I)
      if (!Groups[I].Internal && Groups[I].State == GroupState::Running) {
        Gid = I;
        break;
      }
    if (Gid == InvalidGroup)
      return;
  }
  TenantOn = true;
  Group &G = Groups[Gid];
  uint64_t Acct = groupHeapAccount(Gid);
  G.HeapQuotaWords = std::max<uint64_t>(64, Acct / 2);
  G.QuotaGraceUsed = false;
  Super.note(strFormat("squeeze: group %u quota clamped to %llu words", Gid,
                       (unsigned long long)G.HeapQuotaWords));
  (void)P;
}

void Engine::admitSyntheticBurst(Processor &P, unsigned N) {
  TenantOn = true;
  unsigned AdmittedHere = 0;
  unsigned QueuedHere = 0;
  size_t QueueDepth = AdmitQueue.size() - AdmitHead;
  for (unsigned I = 0; I < N; ++I) {
    // Earlier probes of the same burst occupy gate slots: the burst
    // models N launches arriving at once, not N independent singletons.
    // A top-level launch holds a slot too, though it never asked the gate.
    unsigned Live = LiveLaunches + AdmittedHere;
    if (Cfg.MaxLiveGroups == 0 || Live < Cfg.MaxLiveGroups)
      ++AdmittedHere, ++Stats.GroupsAdmitted;
    else if (QueueDepth + QueuedHere < Cfg.MaxQueuedGroups) {
      ++QueuedHere;
      ++Stats.GroupsQueued;
    } else {
      ++Stats.GroupsRejected;
    }
  }
  (void)P;
}

GroupId Engine::shedForPressure(Processor &P) {
  // Victim order: lowest priority first, then largest account, then
  // lowest group id — fully deterministic. Only quota-violating gated
  // launches are eligible; a group within its envelope is never shed.
  GroupId Victim = InvalidGroup;
  uint64_t VictimAcct = 0;
  int VictimPrio = 0;
  for (const Launch &L : Launches) {
    // A stopped one-shot launch is Terminal but still holds its heap
    // until killed or resumed — exactly the memory a shed must reclaim.
    // The state check below excludes Done/Killed groups.
    if (!L.Gated || !L.Admitted)
      continue;
    Group &G = Groups[L.Gid];
    if (G.State != GroupState::Running && G.State != GroupState::Stopped)
      continue;
    if (!G.HeapQuotaWords)
      continue;
    uint64_t Acct = groupHeapAccount(L.Gid);
    if (Acct <= G.HeapQuotaWords)
      continue;
    bool Better = Victim == InvalidGroup || G.Priority < VictimPrio ||
                  (G.Priority == VictimPrio && Acct > VictimAcct);
    if (Better) {
      Victim = L.Gid;
      VictimAcct = Acct;
      VictimPrio = G.Priority;
    }
  }
  if (Victim == InvalidGroup)
    return InvalidGroup;
  Group &G = Groups[Victim];
  ++Stats.GroupsShed;
  G.Condition = strFormat(
      "group-shed: over heap quota (~%llu of %llu words) under global "
      "memory pressure",
      (unsigned long long)VictimAcct, (unsigned long long)G.HeapQuotaWords);
  Super.note(strFormat("shed: group %u \"%s\" priority %d", Victim,
                       G.Banner.c_str(), G.Priority));
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::GroupShed, P.Id, P.Clock, Victim,
                     VictimAcct, uint64_t(G.Priority));
  killGroup(Victim); // ends its launch
  return Victim;
}

GroupId Engine::largestHeapGroup(uint64_t &Words) const {
  Words = 0;
  GroupId Best = InvalidGroup;
  for (const Group &G : Groups) {
    if (G.Internal)
      continue;
    if (G.State != GroupState::Running && G.State != GroupState::Stopped)
      continue;
    uint64_t Acct = groupHeapAccount(G.Id);
    if (Acct > Words) {
      Words = Acct;
      Best = G.Id;
    }
  }
  return Best;
}

HeapFacts Engine::heapFacts() const {
  HeapFacts F;
  F.UsedWords = TheHeap.usedWords();
  F.CapacityWords = TheHeap.capacityWords();
  F.Collections = TheGc.stats().Collections;
  F.CollectorWedged = TheHeap.wedged();
  F.OffenderGroup = largestHeapGroup(F.OffenderLiveWords);
  return F;
}

namespace {
/// The group a future was created in (every future names one).
GroupId futureGroup(const Object *Fut) {
  return static_cast<GroupId>(Fut->slot(Object::FutGroupId).asFixnum());
}
} // namespace

bool Engine::isLaunchRoot(const Object *Fut) const {
  GroupId Gid = futureGroup(Fut);
  if (Gid >= Groups.size())
    return false;
  const Value &Root = Groups[Gid].RootFuture;
  return Root.isFuture() && Root.pointee() == Fut;
}

bool Engine::noteLaunchRootResolved(const Object *Fut) {
  if (!isLaunchRoot(Fut))
    return false;
  GroupId Gid = futureGroup(Fut);
  Group &G = Groups[Gid];
  G.State = GroupState::Done;
  G.RootResolved = true;
  if (Launch *L = openLaunch(Gid)) {
    if (L->Gated)
      Super.note(strFormat("done: group %u \"%s\"", Gid, G.Banner.c_str()));
    finalizeLaunch(Gid);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Fail-stop recovery
//===----------------------------------------------------------------------===//

namespace {

/// Why a lost task cannot be re-executed from its spawn lineage. The
/// numeric values are the TaskOrphaned trace event's B payload.
enum class OrphanReason : unsigned {
  Recoverable = 0,
  NoLineage = 1,     ///< seam-split continuation: no spawn closure exists
  SemaphoreHeld = 2, ///< exclusion already observed by other tasks
  SeamObserved = 3,  ///< a thief split this task's stack; re-running
                     ///< would recompute frames the thief now owns
  DidIo = 4,         ///< output already reached the console
  Disabled = 5,      ///< EngineConfig::Recovery is off
};

const char *orphanReasonName(OrphanReason R) {
  switch (R) {
  case OrphanReason::Recoverable:
    return "recoverable";
  case OrphanReason::NoLineage:
    return "no spawn lineage";
  case OrphanReason::SemaphoreHeld:
    return "holds a semaphore";
  case OrphanReason::SeamObserved:
    return "stack split by a seam steal";
  case OrphanReason::DidIo:
    return "performed I/O";
  case OrphanReason::Disabled:
    return "recovery disabled";
  }
  return "?";
}

} // namespace

void Engine::recoverProcessor(Processor &P, Processor &Dead,
                              uint64_t DoomClock) {
  ++Stats.ProcsKilled;

  // Everything the processor took down with it: the task it was running
  // plus its queued backlog. The drain itself costs no virtual time —
  // recovery is scheduler firmware, not program work; the price the
  // program pays is the re-executed cycles, charged as the re-spawned
  // tasks run (EngineStats::RecoveryCycles).
  std::vector<TaskId> Lost;
  if (Dead.Current != InvalidTask) {
    Lost.push_back(Dead.Current);
    Dead.Current = InvalidTask;
  }
  uint64_t Scratch = 0;
  for (TaskId T; (T = Dead.Queues.popNew(Dead.Clock, Scratch)) != InvalidTask;)
    Lost.push_back(T);

  // The suspended queue splits in two. Entries that arrived *before* the
  // kill mark are genuine lost backlog. Entries at or after the mark are
  // post-mortem wakes: the kill is polled at quantum granularity, so
  // another processor can run past the mark and wake a task here (via
  // Machine::homeFor, which still saw this processor alive) before the
  // poll fires. Those tasks were never really on the dead processor —
  // their wake state (HasWakeAction, SemaphoresHeld from a semaphore
  // handoff) is intact and must not be re-spawned from lineage (double
  // execution) or orphaned (a spurious semaphore-held group stop); they
  // are redirected to the nearest survivor unchanged.
  std::vector<std::pair<TaskId, uint64_t>> PostMortemWakes;
  for (const auto &[T, Arrived] : Dead.Queues.drainSuspendedArrivals()) {
    if (Arrived >= DoomClock)
      PostMortemWakes.emplace_back(T, Arrived);
    else
      Lost.push_back(T);
  }
  for (const auto &[Id, Arrived] : PostMortemWakes) {
    Task *T = liveTask(Id);
    if (!T)
      continue;
    Group &G = group(T->Group);
    if (G.State == GroupState::Killed) {
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskDropped, P.Id, P.Clock, T->Id);
      finishTask(*T);
      continue;
    }
    if (G.State == GroupState::Stopped) {
      T->State = TaskState::Stopped;
      G.Parked.push_back(T->Id);
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskParked, P.Id, P.Clock, T->Id);
      continue;
    }
    Processor &Home = TheMachine.homeFor(Dead.Id);
    T->LastProc = Home.Id;
    Home.Queues.pushSuspended(Id, Arrived);
    ++Stats.WakesRedirected;
  }

  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::ProcKilled, P.Id, P.Clock, Dead.Id,
                     Lost.size(), Stats.ProcsKilled);

  // Classify. A lost task is re-executable exactly when it still has its
  // spawn lineage and no other task can have observed anything it did:
  // plain memory writes are idempotent under the deterministic schedule
  // (re-running stores the same values), but a held semaphore, a seam
  // split (a thief owns part of the stack) or console output is an
  // observation that re-execution would double (see DESIGN.md).
  struct RecoverItem {
    Task *T;
    const CheckpointRecord *CP; ///< null = lineage re-spawn from scratch
  };
  std::vector<RecoverItem> Recover;
  std::vector<std::pair<Task *, OrphanReason>> Orphans;
  for (TaskId Id : Lost) {
    Task *T = liveTask(Id);
    if (!T)
      continue; // stale id; vetting would have dropped it on dispatch
    Group &G = group(T->Group);
    if (G.State == GroupState::Killed) {
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskDropped, P.Id, P.Clock, T->Id);
      finishTask(*T);
      continue;
    }
    if (G.State == GroupState::Stopped) {
      // The group is already in the breakloop; park the task so a resume
      // re-enqueues it like any other sibling.
      T->State = TaskState::Stopped;
      G.Parked.push_back(T->Id);
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::TaskParked, P.Id, P.Clock, T->Id);
      continue;
    }
    // Checkpointed recovery: a record whose side-effect epoch still
    // matches the task's (nothing observable happened since capture)
    // resumes the task from the snapshot. That trumps spawn-replay (only
    // the capture-to-kill delta is re-executed) *and* most orphan
    // reasons: the held semaphores, I/O, or missing lineage the orphan
    // rules fear date from before the capture, are baked into the
    // snapshot, and are never re-executed.
    if (Cfg.Recovery && Cfg.CheckpointEvery) {
      auto It = G.Checkpoints.find(taskIndex(T->Id));
      if (It != G.Checkpoints.end() &&
          It->second.Epoch == T->SideEffectEpoch) {
        Recover.push_back({T, &It->second});
        continue;
      }
    }
    OrphanReason Why = OrphanReason::Recoverable;
    if (!Cfg.Recovery)
      Why = OrphanReason::Disabled;
    else if (!T->SpawnClosure.isObject())
      Why = OrphanReason::NoLineage;
    else if (T->SemaphoresHeld > 0)
      Why = OrphanReason::SemaphoreHeld;
    else if (T->BaseFrame > 0)
      Why = OrphanReason::SeamObserved;
    else if (T->DidIo)
      Why = OrphanReason::DidIo;
    if (Why == OrphanReason::Recoverable)
      Recover.push_back({T, nullptr});
    else
      Orphans.emplace_back(T, Why);
  }

  // Re-spawn the recoverable tasks round-robin over the survivors,
  // starting after the dead processor so the load spreads the same way
  // every replay. initForThunk on the existing task keeps its id, group
  // and result future, so tasks blocked on it resolve as if nothing
  // happened — only the cycles are paid twice.
  unsigned N = TheMachine.numProcessors();
  unsigned Next = Dead.Id;
  for (const RecoverItem &Item : Recover) {
    Task *T = Item.T;
    do
      Next = (Next + 1) % N;
    while (TheMachine.processor(Next).Dead);
    Processor &Home = TheMachine.processor(Next);
    if (Item.CP) {
      restoreFromCheckpoint(P, *T, *Item.CP, Home, Dead.Id);
      continue;
    }
    T->initForThunk(T->Id, T->Group, T->SpawnClosure, T->ResultFuture,
                    T->SpawnDynEnv, Home.Id);
    T->Recovered = true;
    Home.Queues.pushNew(T->Id, Home.Clock);
    ++Stats.TasksRecovered;
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::TaskRecovered, P.Id, P.Clock, T->Id,
                       Home.Id, Dead.Id);
  }

  // Unrecoverable tasks stop their group with a breakloop-inspectable
  // condition naming every orphaned future, mirroring the heap-exhausted
  // degradation. The simulator still holds the orphans' state, so the
  // stop is restartable: resume deliberately breaks the fail-stop
  // fiction and continues them on a survivor.
  for (size_t I = 0; I < Orphans.size(); ++I) {
    auto [T, Why] = Orphans[I];
    ++Stats.TasksOrphaned;
    if (TheTracer.enabled())
      TheTracer.record(TraceEventKind::TaskOrphaned, P.Id, P.Clock, T->Id,
                       static_cast<uint64_t>(Why), Dead.Id);
    Group &G = group(T->Group);
    if (G.State == GroupState::Stopped) {
      // A prior orphan already stopped this group; join its parked set
      // and append to the condition so the breakloop names every orphan.
      T->State = TaskState::Stopped;
      G.Parked.push_back(T->Id);
      G.Condition += strFormat(", task %u (%s)", taskIndex(T->Id),
                               orphanReasonName(Why));
      continue;
    }
    stopGroupRestartable(
        P, *T,
        strFormat("processor-lost: processor %u failed; orphaned futures: "
                  "task %u (%s)",
                  Dead.Id, taskIndex(T->Id), orphanReasonName(Why)));
  }
}

void Engine::maybeCheckpoint(Processor &P, Task &T) {
  // Capture eligibility: the task must own its whole stack. An unstolen
  // seam could be stolen *after* the capture (the thief's future would
  // dangle in the snapshot), and a nonzero BaseFrame means the frames
  // below already belong to a thief's parent-continuation task.
  if (T.UnstolenSeams > 0 || T.BaseFrame > 0 || T.Frames.empty())
    return;
  if (T.Group == InvalidGroup)
    return;
  Group &G = group(T.Group);
  CheckpointRecord &R = G.Checkpoints[taskIndex(T.Id)];
  R.Stack = T.Stack;
  R.Frames = T.Frames;
  R.CurCode = T.CurCode;
  R.Pc = T.Pc;
  R.DynEnv = T.DynEnv;
  R.SemaphoresHeld = T.SemaphoresHeld;
  R.DidIo = T.DidIo;
  R.Epoch = T.SideEffectEpoch;
  R.CaptureClock = P.Clock;
  // Snapshot cost: a base plus one cycle per four copied words (a frame
  // is modelled as four words of resume state).
  uint64_t CopiedWords =
      uint64_t(R.Stack.size()) + uint64_t(R.Frames.size()) * 4;
  uint64_t Cost = cost::CheckpointBase + CopiedWords / 4;
  P.charge(Cost);
  Stats.CheckpointCycles += Cost;
  ++P.CheckpointsTaken;
  P.LastCheckpointClock = P.Clock;
  T.SinceCheckpoint = 0;
  if (TheTracer.enabled())
    TheTracer.record(TraceEventKind::CheckpointTaken, P.Id, P.Clock, T.Id,
                     Cost, R.Epoch);
}

std::string Engine::describeWaitGraph() {
  // Reconstruct the task -> future -> computing-task wait-for graph from
  // scheduler state. An unresolved future's FutTaskId slot still holds
  // the index of the task computing it (resolve overwrites it, but then
  // the future no longer blocks anyone), so each blocked task has at
  // most one outgoing edge and any cycle is a simple rho-shaped walk.
  constexpr uint32_t NoEdge = ~uint32_t(0);
  std::vector<uint32_t> EdgeTo(Tasks.size(), NoEdge);
  std::string Out;
  StringOutStream OS(Out);

  for (size_t I = 0; I < Tasks.size(); ++I) {
    Task &T = *Tasks[I];
    if (T.State == TaskState::BlockedSemaphore) {
      OS << "  task " << I << " waits on a semaphore\n";
      continue;
    }
    if (T.State != TaskState::BlockedFuture || !T.BlockedOn.isFuture())
      continue;
    Object *Fut = T.BlockedOn.pointee();
    // Chase resolved links to the future actually pending.
    while (Fut->futureResolved() && Fut->futureValue().isFuture())
      Fut = Fut->futureValue().pointee();
    OS << "  task " << I << " waits on a future";
    int64_t Idx = Fut->slot(Object::FutTaskId).isFixnum()
                      ? Fut->slot(Object::FutTaskId).asFixnum()
                      : -1;
    Task *Computer = (Idx >= 0 && size_t(Idx) < Tasks.size())
                         ? Tasks[size_t(Idx)].get()
                         : nullptr;
    if (Computer && Computer->State != TaskState::Done &&
        Computer->ResultFuture.isFuture() &&
        Computer->ResultFuture.pointee() == Fut) {
      OS << " computed by task " << Idx << "\n";
      EdgeTo[I] = uint32_t(Idx);
    } else {
      OS << " whose computing task is gone\n";
    }
  }
  if (Out.empty())
    return Out;
  Out.insert(0, "blocked tasks:\n");

  // Rho walk from every blocked task; report the first cycle found.
  std::vector<uint8_t> Mark(Tasks.size(), 0);
  for (uint32_t Start = 0; Start < EdgeTo.size(); ++Start) {
    if (EdgeTo[Start] == NoEdge || Mark[Start])
      continue;
    uint32_t Cur = Start;
    std::vector<uint32_t> Path;
    while (Cur != NoEdge && Mark[Cur] != 1) {
      if (Mark[Cur] == 2)
        break; // joins an already-explored tail: no new cycle
      Mark[Cur] = 1;
      Path.push_back(Cur);
      Cur = EdgeTo[Cur];
    }
    bool Found = false;
    if (Cur != NoEdge && Mark[Cur] == 1) {
      OS << "wait cycle: ";
      bool In = false;
      for (uint32_t N : Path) {
        if (N == Cur)
          In = true;
        if (In)
          OS << "task " << N << " -> ";
      }
      OS << "task " << Cur << "\n";
      Found = true;
    }
    for (uint32_t N : Path)
      Mark[N] = 2;
    if (Found)
      break;
  }
  return Out;
}

std::string Engine::backtrace(TaskId Id) {
  uint32_t Idx = taskIndex(Id);
  if (Idx >= Tasks.size() || TaskGens[Idx] != taskGeneration(Id))
    return "<dead task>\n";
  Task &T = *Tasks[Idx];
  std::string Out;
  StringOutStream OS(Out);
  if (T.CurCode)
    OS << "  in " << T.CurCode->Name << " (pc " << T.Pc << ")\n";
  for (size_t I = T.Frames.size(); I > T.BaseFrame; --I) {
    const Frame &F = T.Frames[I - 1];
    if (F.CallerCode)
      OS << "  called from " << F.CallerCode->Name << " (pc " << F.RetPc
         << ")" << (F.IsSeam ? " [seam]" : "") << "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

namespace {
/// \p V with every resolved future it leads to chased to its value.
Value resolvedValue(Value V) {
  while (V.isFuture() && V.pointee()->futureResolved())
    V = V.pointee()->futureValue();
  return V;
}
} // namespace

Engine::RootLaunch Engine::launchRoot(Code *TopCode, std::string Banner,
                                      unsigned Home) {
  RootLaunch L;
  L.Gid = static_cast<GroupId>(Groups.size());
  Groups.emplace_back();
  Group &G = Groups.back();
  G.Id = L.Gid;
  G.Banner = std::move(Banner);
  G.Internal = Bootstrapping;
  applyTenantDefaults(G);

  // Root closure and future (GC-safe: the closure is protected via the
  // group's RootFuture only after both allocations, so allocate the
  // future first and keep the closure in a scanned slot).
  // A launch that cannot allocate ends its group at once.
  auto Fail = [&](const char *Why) {
    G.State = GroupState::Killed;
    L.Error = Why;
    return L;
  };
  Object *Fut = allocOrGc(TypeTag::Future, Object::FutureSizeWords);
  if (!Fut)
    return Fail("heap exhausted allocating root future");
  Fut->setSlot(Object::FutState, Value::fixnum(0));
  Fut->setSlot(Object::FutValue, Value::unspecified());
  Fut->setSlot(Object::FutWaiters, Value::nil());
  Fut->setSlot(Object::FutTaskId, Value::fixnum(0));
  Fut->setSlot(Object::FutGroupId, Value::fixnum(L.Gid));
  G.RootFuture = Value::future(Fut);

  Object *Clo = allocOrGc(TypeTag::Closure, 1);
  if (!Clo)
    return Fail("heap exhausted allocating root closure");
  Clo->setSlot(0, Registry.templateFor(TopCode));
  // Re-read the future: allocating the closure may have collected.
  Fut = G.RootFuture.pointee();

  // Home is a hint: a fail-stopped processor hands over to a survivor.
  L.Proc = TheMachine.homeFor(Home).Id;
  L.Root = newTask(L.Gid, Value::object(Clo), G.RootFuture, Value::nil(),
                   L.Proc);
  Fut->setSlot(Object::FutTaskId,
               Value::fixnum(static_cast<int64_t>(taskIndex(L.Root))));
  return L;
}

void Engine::beginLaunchSet() {
  Launches.clear();
  AdmitQueue.clear();
  AdmitHead = 0;
  LiveLaunches = 0;
  OpenLaunches = 0;
  Escalated = false;
}

EvalResult Engine::runTopLevelLaunch(GroupId Gid) {
  beginLaunchSet();
  Launch L;
  L.Gid = Gid;
  L.RootFuture = Groups[Gid].RootFuture;
  L.Admitted = true; // it bypasses the gate but holds a live slot
  L.Terminal = Groups[Gid].State == GroupState::Done;
  Launches.push_back(L);
  LiveLaunches = OpenLaunches = L.Terminal ? 0 : 1;
  std::vector<EvalResult> Results(1);
  runLaunches(Results);
  return Results[0];
}

void Engine::runLaunches(std::vector<EvalResult> &Results) {
  RunResult RR;
  if (OpenLaunches)
    RR = TheMachine.run(*this);
  for (size_t I = 0; I < Launches.size(); ++I)
    if (Launches[I].Gid != InvalidGroup)
      Results[I] = launchResult(Launches[I], RR);
  // The run is over. Launches it abandoned (deadlock, the cycle limit, a
  // wedged heap, escalation, a gate that never opened) still have
  // runnable tasks in processor queues; kill them so a later eval cannot
  // dispatch a half-finished group. Stopped groups stay inspectable, and
  // restarts still pending for them are dropped. Every launch is made
  // terminal first, so the kills admit nothing from the queue.
  for (Launch &L : Launches)
    L.Terminal = true;
  for (Launch &L : Launches)
    if (L.Gid != InvalidGroup && Groups[L.Gid].State == GroupState::Running)
      killGroup(L.Gid);
  Super.dropPending();
}

EvalResult Engine::launchResult(const Launch &L, const RunResult &RR) const {
  const Group &G = Groups[L.Gid];
  EvalResult R;
  switch (G.State) {
  case GroupState::Done:
    R.Val = resolvedValue(G.RootFuture);
    return R;
  case GroupState::Stopped:
    // Heap exhaustion inside a task stops its group (so the breakloop can
    // inspect and kill it) but callers match on the dedicated kind.
    R.K = isHeapCondition(G.Condition) ? EvalResult::Kind::HeapExhausted
                                       : EvalResult::Kind::RuntimeError;
    R.Error = G.Condition;
    R.StoppedGroup = L.Gid;
    if (R.K == EvalResult::Kind::HeapExhausted)
      R.Heap = L.Heap;
    return R;
  case GroupState::Killed:
    R.K = EvalResult::Kind::RuntimeError;
    R.Error = G.Condition.empty() ? "group-killed" : G.Condition;
    R.StoppedGroup = L.Gid;
    return R;
  case GroupState::Running:
    break;
  }
  // The run ended before this launch did.
  switch (RR.Status) {
  case RunStatus::Deadlock:
    R.K = EvalResult::Kind::Deadlock;
    break;
  case RunStatus::CycleLimit:
    R.K = EvalResult::Kind::CycleLimit;
    break;
  case RunStatus::HeapExhausted:
    R.K = EvalResult::Kind::HeapExhausted;
    R.Heap = RR.Heap;
    break;
  case RunStatus::Completed: // escalated, or the gate never opened
    R.K = EvalResult::Kind::RuntimeError;
    break;
  }
  R.Error = Escalated ? "run-escalated: a supervised group's policy ended "
                        "the run"
            : !L.Admitted ? "admission-starved: the gate never opened"
                          : RR.Error;
  return R;
}

EvalResult Engine::runTopLevel(Code *TopCode, std::string_view Banner) {
  // Launch on processor 0 — or, if it fail-stopped, the nearest survivor.
  RootLaunch L = launchRoot(TopCode, std::string(Banner), 0);
  if (L.Root == InvalidTask) {
    EvalResult R;
    R.K = EvalResult::Kind::HeapExhausted;
    R.Error = L.Error;
    return R;
  }
  Processor &P0 = TheMachine.processor(L.Proc);
  P0.charge(P0.Queues.pushNew(L.Root, P0.Clock));
  EvalResult R = runTopLevelLaunch(L.Gid);
  // Request latency for the multi-tenant story: every top-level eval is
  // one request, including the ones that end in a breakloop.
  Telem.add(TelemIds.EvalsTotal, P0.Id);
  Telem.record(TelemIds.EvalRequest, P0.Id, Stats.ElapsedCycles);
  return R;
}

EvalResult Engine::evalDatum(Value Form, std::string_view Banner) {
  Compiler::Result CR = [&] {
    HostPhaseTimer HostCompile(Telem, Telemetry::Phase::Compile);
    return TheCompiler.compile(Form);
  }();
  if (!CR.ok()) {
    EvalResult R;
    R.K = EvalResult::Kind::CompileError;
    R.Error = CR.Error;
    return R;
  }
  std::string Text =
      Banner.empty() ? valueToString(Form) : std::string(Banner);
  if (Text.size() > 60)
    Text.resize(60);
  return runTopLevel(CR.TopCode, Text);
}

EvalResult Engine::eval(std::string_view Source) {
  Reader Rd(Builder, Source);
  std::string Err;
  std::vector<Value> Forms = [&] {
    HostPhaseTimer HostRead(Telem, Telemetry::Phase::Read);
    return Rd.readAll(Err);
  }();
  if (!Err.empty()) {
    EvalResult R;
    R.K = EvalResult::Kind::ReadError;
    R.Error = Err;
    return R;
  }
  TheCompiler.prescanDefines(Forms);

  EvalResult Last;
  for (Value F : Forms) {
    Last = evalDatum(F);
    if (!Last.ok())
      return Last;
  }
  return Last;
}

std::vector<EvalResult>
Engine::evalGroups(const std::vector<GroupLaunch> &Specs) {
  std::vector<EvalResult> Results(Specs.size());
  if (Specs.empty())
    return Results;
  for (const GroupLaunch &L : Specs)
    if (L.HeapQuotaWords || L.CycleBudget || !L.Supervise.empty())
      TenantOn = true;

  Super.beginRun();
  beginLaunchSet();

  // Create every group, root future and root task up front. The admission
  // drain is then a single queue push from arbitrarily deep in the
  // scheduler — it never allocates mid-run.
  unsigned NP = TheMachine.numProcessors();
  for (size_t I = 0; I < Specs.size(); ++I) {
    const GroupLaunch &L = Specs[I];
    Launch TL;
    TL.Gated = true;
    TL.Terminal = true; // until it is launched
    Reader Rd(Builder, L.Source);
    std::string Err;
    std::vector<Value> Forms = [&] {
      HostPhaseTimer HostRead(Telem, Telemetry::Phase::Read);
      return Rd.readAll(Err);
    }();
    if (!Err.empty() || Forms.size() != 1) {
      Results[I].K = EvalResult::Kind::ReadError;
      Results[I].Error =
          !Err.empty() ? Err
                       : (Forms.empty() ? "empty launch source"
                                        : "a launch must be a single form");
      Launches.push_back(TL);
      continue;
    }
    Compiler::Result CR = [&] {
      HostPhaseTimer HostCompile(Telem, Telemetry::Phase::Compile);
      return TheCompiler.compile(Forms[0]);
    }();
    if (!CR.ok()) {
      Results[I].K = EvalResult::Kind::CompileError;
      Results[I].Error = CR.Error;
      Launches.push_back(TL);
      continue;
    }

    std::string Banner = valueToString(Forms[0]);
    if (Banner.size() > 60)
      Banner.resize(60);
    // Home processors round-robin so a single-tenant hot spot cannot
    // starve the others' root launches.
    RootLaunch RL =
        launchRoot(CR.TopCode, std::move(Banner), unsigned(I % NP));
    GroupId Gid = RL.Gid;
    Group &G = Groups[Gid];
    if (L.HeapQuotaWords)
      G.HeapQuotaWords = L.HeapQuotaWords;
    if (L.CycleBudget)
      G.CycleBudget = L.CycleBudget;
    G.Priority = L.Priority;
    if (!L.Supervise.empty()) {
      Supervisor::Policy Pol;
      std::string PErr;
      if (Supervisor::parsePolicy(L.Supervise, Pol, PErr)) {
        Super.setGroupPolicy(Gid, Pol);
        SuperviseOn = true;
        TenantOn = true;
      } else {
        std::fprintf(stderr, "mult: ignoring launch policy: %s\n",
                     PErr.c_str());
      }
    }

    if (RL.Root == InvalidTask) {
      Results[I].K = EvalResult::Kind::HeapExhausted;
      Results[I].Error = RL.Error;
      Launches.push_back(TL);
      continue;
    }

    Processor &Home = TheMachine.processor(RL.Proc);
    TL.Gid = Gid;
    TL.RootTask = RL.Root;
    TL.RootFuture = G.RootFuture;
    TL.Terminal = false;
    TL.EnqueuedAt = Home.Clock;
    ++OpenLaunches;
    Telem.add(TelemIds.EvalsTotal, Home.Id);
    Launches.push_back(TL);
  }

  // Admission gate: the first MaxLiveGroups launches run, the next
  // MaxQueuedGroups wait (FIFO), the rest are rejected outright.
  for (size_t I = 0; I < Launches.size(); ++I) {
    Launch &L = Launches[I];
    if (L.Terminal)
      continue;
    Task *T = liveTask(L.RootTask);
    Processor &Home = TheMachine.homeFor(T ? T->LastProc : 0);
    if (Cfg.MaxLiveGroups == 0 || LiveLaunches < Cfg.MaxLiveGroups) {
      L.Admitted = true;
      ++LiveLaunches;
      ++Stats.GroupsAdmitted;
      Home.charge(Home.Queues.pushNew(L.RootTask, Home.Clock));
      Telem.record(TelemIds.AdmissionWait, Home.Id, 0);
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::GroupAdmitted, Home.Id, Home.Clock,
                         L.Gid, 0, 0);
    } else if (AdmitQueue.size() - AdmitHead < Cfg.MaxQueuedGroups) {
      AdmitQueue.push_back(I);
      ++Stats.GroupsQueued;
      Super.note(strFormat("queue: group %u \"%s\"", L.Gid,
                           Groups[L.Gid].Banner.c_str()));
      if (TheTracer.enabled())
        TheTracer.record(TraceEventKind::GroupQueued, Home.Id, Home.Clock,
                         L.Gid, 0, 0);
    } else {
      ++Stats.GroupsRejected;
      Groups[L.Gid].Condition =
          "admission-rejected: live and queued launch limits reached";
      Super.note(strFormat("reject: group %u \"%s\"", L.Gid,
                           Groups[L.Gid].Banner.c_str()));
      killGroup(L.Gid); // ends the launch
    }
  }

  runLaunches(Results);
  return Results;
}

std::string Engine::takeOutput() {
  std::string Out = std::move(ConsoleBuf);
  ConsoleBuf.clear();
  return Out;
}

void Engine::resetStats() {
  // Compile stats are properties of the loaded program, not of a run;
  // they survive resets (benchmarks reset between timed runs).
  Stats = EngineStats();
  TheGc.resetStats();
  TheTracer.clear();
  // Telemetry values reset with the run; registrations, metric ids and
  // the per-site child table survive (sites are program facts).
  Telem.clear();
  if (RaceDet)
    RaceDet->clear(); // each measured run gets an independent verdict
  for (unsigned I = 0; I < TheMachine.numProcessors(); ++I) {
    Processor &P = TheMachine.processor(I);
    P.BusyCycles = 0;
    P.IdleCycles = 0;
    P.GcCycles = 0;
    P.ClockAtReset = P.Clock;
    P.Instructions = 0;
    P.Dispatches = 0;
    P.Steals = 0;
    P.StealAttempts = 0;
    P.StealsFailed = 0;
    P.StolenFrom = 0;
    P.TasksStarted = 0;
    P.HandlerActivations = 0;
    P.CheckpointsTaken = 0;
    P.LastCheckpointClock = 0;
    P.TraceIdling = false;
    P.Queues.resetHighWater();
  }
  // Open adaptation windows baselined against the counters just zeroed;
  // re-baseline them so window deltas never go negative. The learned
  // thresholds survive (a reset measures a run, it doesn't unlearn).
  TheMachine.rebaselineAdaptiveWindows();
}
