//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark harness. Runs one workload through the
/// engine's public API in a closed loop (one eval at a time, a fresh
/// Engine per repetition), checks every result and the run invariants,
/// and prints a human-readable report followed by one JSON line:
///
///   --trace 0   untraced repetitions only; the end-to-end metrics.
///   --trace 1   untraced and traced repetitions, alternating; the
///               per-layer metrics, and the harness's own spans written
///               to --spans FILE (Chrome trace JSON).
///
/// Usage:
///   perfbench --workload boyer|boyer_gc|compiler --seed N --seconds S
///             --trace 0|1 [--spans FILE] [--commit ID]
///
/// Host times come from timing the calls into the engine; virtual times
/// and per-layer work from the counters the engine exposes. README.md in
/// this directory explains the workloads and every metric.
///
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "obs/CriticalPath.h"
#include "reader/Reader.h"
#include "runtime/Printer.h"

#include "programs/BoyerProgram.h"
#include "programs/MiniCompilerProgram.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

extern char **environ;

using namespace mult;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  unsigned Procs;
  std::optional<unsigned> InlineT;
  size_t HeapWords;
  /// False when the input is fixed (Boyer proves Gabriel's theorem).
  bool UsesSeed;
};

// boyer: Table 3 program, T=1, a heap that never collects (the golden
// benches' size). boyer_gc: the same run in a heap 2-4x its live data, so
// the collector does ~40% of the processor-cycles; the pair isolates the
// collector. compiler: the Table 4 mini-compiler at T=infinity (as the
// Table 4 bench runs it), dominated by idle processors probing for work
// during its sequential phases, with a semaphore-serialised assembler.
const Workload Workloads[] = {
    {"boyer", 8, 1u, size_t(1) << 23, false},
    {"boyer_gc", 8, 1u, size_t(1) << 18, false},
    {"compiler", 12, std::nullopt, size_t(1) << 23, true},
};

/// Rounds of the Boyer proof per eval.
constexpr int BoyerRounds = 4;

/// Safety net: ~300 virtual seconds, over ten times the longest makespan.
/// A run that reaches it is reported as a failure.
constexpr uint64_t MaxRunCycles = uint64_t(1) << 28;

/// splitmix64: the compiler workload's input generator.
struct SplitMix {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
};

/// Emits one mini-compiler source expression of about \p Nodes AST nodes
/// (the grammar of mc-gen-expr in MiniCompilerProgram.h). Unlike
/// mc-gen-expr, the size is fixed rather than drawn, and an `if` tests a
/// variable, so constant folding never prunes a branch: every seed gives
/// the same amount of compiler work and only the program's content varies.
void genExpr(std::string &Out, SplitMix &R, unsigned Nodes, bool InLet,
             unsigned ProcIdx) {
  unsigned NumVars = InLet ? 4 : 3;
  static const char *Vars[] = {"a", "b", "c", "tmp"};
  if (Nodes <= 2 && !(Nodes == 2 && ProcIdx > 0)) {
    if (R.below(3) == 0)
      Out += std::to_string(R.below(100));
    else
      Out += Vars[R.below(NumVars)];
    return;
  }
  // Kind weights follow mc-gen-expr: prim 4, if 2, let 3, call 1.
  unsigned Kind;
  if (Nodes == 2)
    Kind = 9; // only a call fits
  else if (Nodes == 3)
    Kind = (R.below(7) < 4) ? 0 : 6; // prim or let
  else
    Kind = R.below(ProcIdx > 0 ? 10 : 9);
  auto Split = [&](unsigned Total) {
    unsigned A = 1 + R.below(Total - 1);
    return std::make_pair(A, Total - A);
  };
  if (Kind < 4) {
    static const char *Ops[] = {"+", "-", "*", "+"};
    auto [A, B] = Split(Nodes - 1);
    Out += "(";
    Out += Ops[R.below(4)];
    Out += ' ';
    genExpr(Out, R, A, InLet, ProcIdx);
    Out += ' ';
    genExpr(Out, R, B, InLet, ProcIdx);
    Out += ')';
  } else if (Kind < 6) {
    auto [A, B] = Split(Nodes - 2);
    Out += "(if ";
    Out += Vars[R.below(NumVars)];
    Out += ' ';
    genExpr(Out, R, A, InLet, ProcIdx);
    Out += ' ';
    genExpr(Out, R, B, InLet, ProcIdx);
    Out += ')';
  } else if (Kind < 9) {
    auto [A, B] = Split(Nodes - 1);
    Out += "(let tmp ";
    genExpr(Out, R, A, InLet, ProcIdx);
    Out += ' ';
    genExpr(Out, R, B, true, ProcIdx);
    Out += ')';
  } else {
    Out += "(call p" + std::to_string(R.below(ProcIdx)) + ' ';
    genExpr(Out, R, Nodes - 1, InLet, ProcIdx);
    Out += ')';
  }
}

/// Procedures in the generated program: the paper's Pascal program had 21.
constexpr unsigned CompilerProcs = 21;
/// AST nodes of the smallest procedure; sizes cycle through 1x, 2x, 4x and
/// 8x this, so the per-procedure tasks are uneven as in the paper.
constexpr unsigned CompilerBaseNodes = 800;

std::string compilerInput(uint64_t Seed) {
  SplitMix R{Seed ^ 0x636f6d70696c6572ull}; // "compiler"
  std::string Out = "(define perfbench-input '(\n";
  for (unsigned I = 0; I < CompilerProcs; ++I) {
    Out += "(procedure p" + std::to_string(I) + " (a b c) ";
    genExpr(Out, R, CompilerBaseNodes << (I % 4), false, I);
    Out += ")\n";
  }
  Out += "))\n";
  return Out;
}

std::string programSource(const Workload &W, uint64_t Seed) {
  if (W.UsesSeed)
    return std::string(MiniCompilerSource) + compilerInput(Seed);
  return std::string(BoyerCommonSource) + BoyerParallelArgs;
}

std::string timedExpr(const Workload &W) {
  if (W.UsesSeed)
    return "(mc-compile-program perfbench-input #t)";
  return "(boyer-test " + std::to_string(BoyerRounds) + ")";
}

/// Every EngineConfig field the workloads depend on, set explicitly:
/// threaded dispatch, no faults, no checkpoints, static T, no site
/// policies, no quotas or supervision, tracing only when asked.
EngineConfig pinnedConfig(const Workload &W, bool Traced) {
  EngineConfig C;
  C.NumProcessors = W.Procs;
  C.InlineThreshold = W.InlineT;
  C.LazyFutures = false;
  C.AdaptiveInline = false;
  C.SitePolicies.clear();
  C.EmitTouchChecks = true;
  C.OptimizeTouches = true;
  C.IntegratePrims = true;
  C.HeapWords = W.HeapWords;
  C.ChunkWords = 4096;
  C.LargeObjectWords = 512;
  C.MaxStackWords = size_t(1) << 20;
  C.RandomSeed = 0x4d756c54;
  C.QuantumCycles = 64;
  C.MaxRunCycles = MaxRunCycles;
  C.MaxCycles = ~uint64_t(0);
  C.StealPolicy = StealOrder::Lifo;
  C.LoadPrelude = true;
  C.EnableTracing = Traced;
  // A traced run keeps its events through DagEvents; the tracer's own
  // buffer holds one.
  C.TraceSink = Traced ? "ring:1" : "";
  C.Faults.clear();
  C.Recovery = true;
  C.CheckpointEvery = 0;
  C.Telemetry.clear();
  C.Dispatch = DispatchMode::Threaded;
  C.RaceDetect = false;
  C.GroupHeapQuotaWords = 0;
  C.GroupCycleBudget = 0;
  C.MaxLiveGroups = 0;
  C.MaxQueuedGroups = 0;
  C.Supervise.clear();
  return C;
}

/// Multilisp transparency: the compiler's result must equal that of the
/// future-free configuration (no touch checks, every future inlined, one
/// processor).
EngineConfig oracleConfig(const Workload &W) {
  EngineConfig C = pinnedConfig(W, false);
  C.NumProcessors = 1;
  C.InlineThreshold = 0u;
  C.EmitTouchChecks = false;
  return C;
}

//===----------------------------------------------------------------------===//
// Spans: the harness's own, around each call into the engine
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

struct Span {
  const char *Name;
  unsigned Rep;
  int Parent; ///< index of the enclosing span, -1 for a repetition root
  bool Traced;
  Clock::time_point Start, End;
  double seconds() const {
    return std::chrono::duration<double>(End - Start).count();
  }
};

class SpanLog {
public:
  int begin(const char *Name, unsigned Rep, int Parent, bool Traced) {
    Spans.push_back({Name, Rep, Parent, Traced, Clock::now(), {}});
    return static_cast<int>(Spans.size() - 1);
  }
  /// Closes span \p Id and returns its duration in seconds.
  double end(int Id) {
    Spans[Id].End = Clock::now();
    return Spans[Id].seconds();
  }

  /// Chrome trace JSON: one complete ("X") event per span; untraced
  /// repetitions on thread 1, traced ones on thread 2.
  bool write(const std::string &Path, Clock::time_point Origin) const {
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    auto Us = [&](Clock::time_point T) {
      return std::chrono::duration<double, std::micro>(T - Origin).count();
    };
    std::fprintf(F, "{\"traceEvents\":[\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"rep\":%u,"
                   "\"traced\":%s}}\n",
                   I ? "," : "", S.Name, Us(S.Start), Us(S.End) - Us(S.Start),
                   S.Traced ? 2 : 1, I, S.Parent, S.Rep,
                   S.Traced ? "true" : "false");
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Host-speed probe
//===----------------------------------------------------------------------===//

/// The VM this benchmark was tuned on runs up to 30% slower for minutes at
/// a time (host contention), which moves every host time alike: over ten
/// 35-second runs of boyer_gc, the interquartile range of the raw
/// host_run_s medians was 0.30 of their median. Every host time is
/// therefore reported at a reference speed: multiplied by ProbeReferenceS /
/// the time of a fixed probe, measured right after the repetition it
/// scales. Over eight 35-second windows this cut the spread of the medians
/// from 0.20 to 0.09. ProbeReferenceS is about the probe's time on that VM
/// when it runs fast, so scaled times read close to raw ones there.
constexpr double ProbeReferenceS = 0.016;

class SpeedProbe {
public:
  /// A random cyclic permutation of 256 KiB of indices to chase.
  SpeedProbe() : Next(size_t(1) << 16) {
    std::vector<uint32_t> Order(Next.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = static_cast<uint32_t>(I);
    SplitMix R{42};
    for (size_t I = Order.size() - 1; I > 0; --I)
      std::swap(Order[I], Order[R.next() % (I + 1)]);
    for (size_t I = 0; I < Order.size(); ++I)
      Next[Order[I]] = Order[(I + 1) % Order.size()];
  }

  /// Seconds one fixed amount of pointer chasing and arithmetic takes.
  double run() {
    auto Start = std::chrono::steady_clock::now();
    uint32_t P = 0;
    uint64_t Acc = 0;
    for (int K = 0; K < 3000000; ++K) {
      P = Next[P];
      Acc += (P & 7) ? P * 3 : P >> 2;
      if (Acc & 1)
        Acc ^= 0x5555;
    }
    Sink = Acc;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  }

private:
  std::vector<uint32_t> Next;
  volatile uint64_t Sink = 0; // keeps the loop from being optimised away
};

//===----------------------------------------------------------------------===//
// One repetition
//===----------------------------------------------------------------------===//

/// Collects the trace events the critical-path analysis reads. Idle
/// processors' steal probes are most of the stream (32M of 32.5M events on
/// the compiler workload, 1 GiB in memory) and add no DAG edge, so they are
/// counted by the tracer but not kept.
class DagEvents final : public TraceObserver {
public:
  std::vector<TraceEvent> Kept;
  void onTraceEvent(const TraceEvent &E) override {
    if (E.Kind != TraceEventKind::StealAttempt)
      Kept.push_back(E);
  }
};

/// Counters that must repeat bit for bit across repetitions (and between
/// traced and untraced ones: tracing never charges virtual time).
using VirtualCounts = std::map<std::string, uint64_t>;

struct Rep {
  bool Traced = false;
  std::string Failure; ///< empty when the eval returned the right result
  double ConstructS = 0, ReadS = 0, LoadS = 0, EvalS = 0;
  uint64_t CompileHostNs = 0; ///< Telemetry Phase::Compile during the load
  uint64_t RunHostNs = 0;     ///< Telemetry Phase::Run of the timed eval
  uint64_t GcHostNs = 0;      ///< Telemetry Phase::Gc of the timed eval
  /// ProbeReferenceS / probe seconds: scales this repetition's host times.
  double Speed = 1.0;
  VirtualCounts V;
};

const char *kindName(EvalResult::Kind K) {
  switch (K) {
  case EvalResult::Kind::Value:
    return "value";
  case EvalResult::Kind::ReadError:
    return "read-error";
  case EvalResult::Kind::CompileError:
    return "compile-error";
  case EvalResult::Kind::RuntimeError:
    return "runtime-error";
  case EvalResult::Kind::Deadlock:
    return "deadlock";
  case EvalResult::Kind::HeapExhausted:
    return "heap-exhausted";
  case EvalResult::Kind::CycleLimit:
    return "cycle-limit";
  }
  return "unknown";
}

std::string describe(const EvalResult &R) {
  return std::string(kindName(R.K)) + ": " + R.Error;
}

/// Loads \p Source into \p E the way Engine::eval does (read, prescan
/// defines, evaluate each form), with the read and the load timed as
/// separate spans. Returns an error message, empty on success.
std::string loadProgram(Engine &E, const std::string &Source, SpanLog &Log,
                        unsigned RepNo, int Root, bool Traced, Rep *Out) {
  int S = Log.begin("program.read", RepNo, Root, Traced);
  std::string Err;
  Reader Rd(E.builder(), Source);
  std::vector<Value> Forms = Rd.readAll(Err);
  double ReadS = Log.end(S);
  if (!Err.empty())
    return "read-error: " + Err;
  S = Log.begin("program.load", RepNo, Root, Traced);
  uint64_t CompileNs0 = E.telemetry().hostNs(Telemetry::Phase::Compile);
  E.compiler().prescanDefines(Forms);
  for (Value F : Forms) {
    EvalResult R = E.evalDatum(F);
    if (!R.ok()) {
      Log.end(S);
      return "load " + describe(R);
    }
  }
  double LoadS = Log.end(S);
  if (Out) {
    Out->ReadS = ReadS;
    Out->LoadS = LoadS;
    Out->CompileHostNs =
        E.telemetry().hostNs(Telemetry::Phase::Compile) - CompileNs0;
  }
  return {};
}

uint64_t histo(const Engine &E, const char *Name, unsigned Pct) {
  Telemetry::Id Id = E.telemetry().find(Name);
  return Id == Telemetry::InvalidId ? 0
                                    : E.telemetry().merged(Id).percentile(Pct);
}

struct Harness {
  Harness(const Workload &W, std::string Source, std::string Expr)
      : W(W), Source(std::move(Source)), Expr(std::move(Expr)) {}

  const Workload &W;
  std::string Source;
  std::string Expr;
  std::optional<std::string> Expected; ///< nullopt: the oracle itself failed
  SpanLog Log;
  std::vector<Rep> Reps;
  std::vector<std::string> Violations;
  unsigned NextRep = 0;
  SpeedProbe Probe;

  void violation(const std::string &What) {
    if (Violations.size() < 16 &&
        std::find(Violations.begin(), Violations.end(), What) ==
            Violations.end())
      Violations.push_back(What);
  }

  Rep runOne(bool Traced);
  /// Records the repetition's virtual counters and checks the invariants.
  void recordAndCheck(Engine &E, Rep &R,
                       const std::vector<TraceEvent> &DagTrace);
};

Rep Harness::runOne(bool Traced) {
  Rep R;
  R.Traced = Traced;
  unsigned RepNo = NextRep++;
  int Root = Log.begin("rep", RepNo, -1, Traced);
  EngineConfig Cfg = pinnedConfig(W, Traced);
  DagEvents Dag; // outlives the engine that reports to it
  int S = Log.begin("engine.construct", RepNo, Root, Traced);
  auto E = std::make_unique<Engine>(Cfg);
  R.ConstructS = Log.end(S);

  const CompileStats C0 = E->compileStats();
  R.Failure = loadProgram(*E, Source, Log, RepNo, Root, Traced, &R);
  if (R.Failure.empty()) {
    const CompileStats &C1 = E->compileStats();
    R.V["compiler.forms"] = C1.FormsCompiled - C0.FormsCompiled;
    R.V["compiler.touches_emitted"] = C1.TouchesEmitted - C0.TouchesEmitted;
    R.V["compiler.touches_eliminated"] =
        C1.TouchesEliminated - C0.TouchesEliminated;

    E->resetStats();
    if (Traced)
      E->tracer().setObserver(&Dag);
    S = Log.begin("run.eval", RepNo, Root, Traced);
    EvalResult Res = E->eval(Expr);
    R.EvalS = Log.end(S);
    if (!Res.ok()) {
      R.Failure = describe(Res);
    } else {
      std::string Got = valueToString(Res.Val);
      if (!Expected)
        R.Failure = "no expected result (the oracle run failed)";
      else if (Got != *Expected)
        R.Failure = "wrong result " + Got + ", expected " + *Expected;
    }
    const Telemetry &T = E->telemetry();
    R.RunHostNs = T.hostNs(Telemetry::Phase::Run);
    R.GcHostNs = T.hostNs(Telemetry::Phase::Gc);
    if (R.Failure.empty())
      recordAndCheck(*E, R, Dag.Kept);
  }
  E.reset();
  S = Log.begin("speed.probe", RepNo, Root, Traced);
  R.Speed = ProbeReferenceS / Probe.run();
  Log.end(S);
  Log.end(Root);
  return R;
}

void Harness::recordAndCheck(Engine &E, Rep &R,
                              const std::vector<TraceEvent> &DagTrace) {
  const EngineStats &St = E.stats();
  const Gc::Stats &G = E.gcStats();
  Machine &M = E.machine();
  uint64_t Busy = 0, Idle = 0, GcC = 0;
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    Busy += P.BusyCycles;
    Idle += P.IdleCycles;
    GcC += P.GcCycles;
  }
  VirtualCounts &V = R.V;
  V["elapsed_cycles"] = St.ElapsedCycles;
  V["busy_cycles"] = Busy;
  V["idle_cycles"] = Idle;
  V["gc_cycles"] = GcC;
  V["vm.instructions"] = St.Instructions;
  V["vm.touches"] = St.TouchesExecuted;
  V["core.futures"] = St.FuturesCreated;
  V["core.inlined"] = St.TasksInlined;
  V["core.touch_blocked"] = St.TouchesBlocked;
  V["core.future_step_cycles"] = St.Steps.total();
  V["core.touch_wait_p50_cycles"] = histo(E, "touch_wait_cycles", 50);
  V["core.touch_wait_p99_cycles"] = histo(E, "touch_wait_cycles", 99);
  V["core.task_lifetime_p50_cycles"] = histo(E, "task_lifetime_cycles", 50);
  V["core.sem_wait_p99_cycles"] = histo(E, "sem_wait_cycles", 99);
  V["sched.steal_attempts"] = St.StealAttempts;
  V["sched.steals"] = St.Steals;
  V["sched.steals_failed"] = St.StealsFailed;
  V["sched.steal_latency_p99_cycles"] =
      histo(E, "steal_latency_cycles", 99);
  V["gc.collections"] = G.Collections;
  V["gc.pause_total_cycles"] = G.TotalPauseCycles;
  V["gc.pause_max_cycles"] = G.MaxPauseCycles;
  V["gc.words_copied"] = G.TotalWordsCopied;
  V["gc.last_work_cycles"] = G.Last.WorkCycles;
  V["gc.last_max_proc_work_cycles"] = G.Last.MaxProcWorkCycles;

  // Busy, idle and GC cycles tile each processor's clock exactly, and
  // every clock ends within a few quanta of the root-resolve clock. (The
  // sum over processors is P x makespan only up to the skew the load left
  // between the clocks, which the run counts as idle, and those end
  // offsets; both are a few dozen cycles here.)
  uint64_t Start = 0;
  for (unsigned I = 0; I < M.numProcessors(); ++I)
    Start = std::max(Start, M.processor(I).ClockAtReset);
  const uint64_t End = Start + St.ElapsedCycles;
  const uint64_t Slack = 4 * E.config().QuantumCycles;
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    if (P.BusyCycles + P.IdleCycles + P.GcCycles != P.Clock - P.ClockAtReset)
      violation("busy+idle+gc != clock on processor " + std::to_string(I));
    if (P.Clock + Slack < End || P.Clock > End + Slack)
      violation("processor " + std::to_string(I) + " ends at " +
                std::to_string(P.Clock) + ", more than " +
                std::to_string(Slack) + " cycles from the makespan end " +
                std::to_string(End));
  }
  if (St.Steals + St.StealsFailed != St.StealAttempts)
    violation("steals + steals_failed != steal_attempts (" +
              std::to_string(St.Steals) + " + " +
              std::to_string(St.StealsFailed) +
              " != " + std::to_string(St.StealAttempts) + ")");

  if (R.Traced) {
    CriticalPathReport CP =
        analyzeCriticalPath(DagTrace, 0, E.tracer().siteNames());
    if (!CP.Ok)
      violation("critical-path analysis refused: " + CP.Error);
    V["obs.trace_events"] = E.tracer().emitted();
    V["cp.work_cycles"] = CP.Work;
    V["cp.span_cycles"] = CP.Span;
    // Brent's bound: no schedule beats max(work / P, span).
    if (CP.idealCycles(M.numProcessors()) > St.ElapsedCycles)
      violation("makespan " + std::to_string(St.ElapsedCycles) +
                " below the critical-path bound " +
                std::to_string(CP.idealCycles(M.numProcessors())));
  }
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0.0; }

struct Metric {
  const char *Name;
  double Value;
  const char *Unit;
};

void printUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload boyer|boyer_gc|compiler --seed N "
               "--seconds S --trace 0|1 [--spans FILE] [--commit ID]\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, SpansPath, Commit = "unknown";
  long long Seed = -1, Seconds = -1, Trace = -1;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc) {
      printUsage();
      return 2;
    }
    const char *V = argv[++I];
    if (A == "--workload")
      WorkloadName = V;
    else if (A == "--seed")
      Seed = std::atoll(V);
    else if (A == "--seconds")
      Seconds = std::atoll(V);
    else if (A == "--trace")
      Trace = std::atoll(V);
    else if (A == "--spans")
      SpansPath = V;
    else if (A == "--commit")
      Commit = V;
    else {
      printUsage();
      return 2;
    }
  }
  const Workload *W = nullptr;
  for (const Workload &Cand : Workloads)
    if (WorkloadName == Cand.Name)
      W = &Cand;
  if (!W || Seed < 0 || Seconds < 1 || Seconds > 3600 ||
      (Trace != 0 && Trace != 1)) {
    printUsage();
    return 2;
  }
  // The Engine reads MULT_* switches (faults, checkpoints, dispatch,
  // quotas, ...) that would silently change what is measured.
  for (char **Env = environ; *Env; ++Env)
    if (std::strncmp(*Env, "MULT_", 5) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *Env);
      return 2;
    }
  bool Traced = Trace == 1;

  Harness H(*W, programSource(*W, static_cast<uint64_t>(Seed)),
            timedExpr(*W));
  Clock::time_point Origin = Clock::now();

  std::printf("perfbench: workload=%s seed=%lld seconds=%lld trace=%lld\n",
              W->Name, Seed, Seconds, Trace);
  std::printf("perfbench: commit=%s nproc=%ld build=%s\n", Commit.c_str(),
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE);
  std::printf("perfbench: %u virtual processors, T=%s, heap=%zu words, "
              "program=%zu bytes, eval=%s\n",
              W->Procs,
              W->InlineT ? std::to_string(*W->InlineT).c_str() : "inf",
              W->HeapWords, H.Source.size(), H.Expr.c_str());
  if (!W->UsesSeed)
    std::printf("perfbench: the input is Gabriel's fixed theorem; the seed "
                "does not change this workload\n");

  if (W->UsesSeed) {
    Engine Oracle(oracleConfig(*W));
    SpanLog Untimed;
    std::string Err =
        loadProgram(Oracle, H.Source, Untimed, 0, -1, false, nullptr);
    if (Err.empty()) {
      EvalResult R = Oracle.eval(H.Expr);
      if (R.ok())
        H.Expected = valueToString(R.Val);
      else
        Err = describe(R);
    }
    if (!Err.empty())
      std::printf("perfbench: oracle run failed: %s\n", Err.c_str());
    else
      std::printf("perfbench: oracle (future-free) result %s\n",
                  H.Expected->c_str());
  } else {
    H.Expected = "#t";
  }

  // Closed loop, one eval at a time, until the time is up; at least three
  // repetitions of each kind so medians are medians.
  Clock::time_point Deadline = Clock::now() + std::chrono::seconds(Seconds);
  unsigned Untraced = 0, TracedReps = 0;
  while (Clock::now() < Deadline || Untraced < 3 ||
         (Traced && TracedReps < 3)) {
    bool ThisTraced = Traced && TracedReps < Untraced;
    H.Reps.push_back(H.runOne(ThisTraced));
    ++(ThisTraced ? TracedReps : Untraced);
  }
  double PeakRssMb = 0;
  {
    struct rusage RU;
    if (getrusage(RUSAGE_SELF, &RU) == 0)
      PeakRssMb = static_cast<double>(RU.ru_maxrss) / 1024.0;
  }

  // Failures, and the bit-identity of every virtual counter. Counters only
  // a traced repetition produces are compared among traced repetitions.
  unsigned Failed = 0;
  const VirtualCounts *RefV = nullptr, *RefTracedV = nullptr;
  for (const Rep &R : H.Reps) {
    if (!R.Failure.empty()) {
      if (Failed++ < 8)
        std::printf("perfbench: FAILED repetition: %s\n", R.Failure.c_str());
      continue;
    }
    const VirtualCounts *&Ref = R.Traced ? RefTracedV : RefV;
    if (!Ref) {
      Ref = &R.V;
      continue;
    }
    for (const auto &[Name, Val] : R.V)
      if (Ref->at(Name) != Val)
        H.violation("virtual counter " + Name + " differs between "
                    "repetitions: " + std::to_string(Ref->at(Name)) + " vs " +
                    std::to_string(Val));
  }
  if (RefV && RefTracedV)
    for (const auto &[Name, Val] : *RefV)
      if (RefTracedV->at(Name) != Val)
        H.violation("tracing changed virtual counter " + Name + ": " +
                    std::to_string(Val) + " untraced vs " +
                    std::to_string(RefTracedV->at(Name)) + " traced");
  static const VirtualCounts None;
  const VirtualCounts &V = RefV ? *RefV : None;
  const VirtualCounts &TV = RefTracedV ? *RefTracedV : None;
  auto Cnt = [](const VirtualCounts &From, const char *Name) -> double {
    auto It = From.find(Name);
    return It == From.end() ? 0.0 : static_cast<double>(It->second);
  };
  auto C = [&](const char *Name) { return Cnt(V, Name); };
  // Median host time over the successful repetitions of one kind, at the
  // reference speed.
  auto Med = [&](bool OfTraced, auto Get) {
    std::vector<double> Xs;
    for (const Rep &R : H.Reps)
      if (R.Failure.empty() && R.Traced == OfTraced)
        Xs.push_back(Get(R) * R.Speed);
    return median(Xs);
  };
  auto MutatorNs = [](const Rep &R) {
    return static_cast<double>(R.RunHostNs - R.GcHostNs);
  };

  const double UsPerCycle = EngineStats::MicrosecondsPerCycle;
  double ProcCycles = W->Procs * C("elapsed_cycles");
  size_t Attempted = H.Reps.size();
  unsigned UntracedOk = 0;
  for (const Rep &R : H.Reps)
    UntracedOk += R.Failure.empty() && !R.Traced;

  auto EvalTime = [](const Rep &R) { return R.EvalS; };
  auto SetupTime = [](const Rep &R) {
    return R.ConstructS + R.ReadS + R.LoadS;
  };
  const Metric VMakespan{"vmakespan_s",
                         C("elapsed_cycles") * UsPerCycle * 1e-6, "virtual_s"};
  const Metric VGcPauseMax{"vgc_pause_max_ms",
                           C("gc.pause_max_cycles") * UsPerCycle * 1e-3,
                           "virtual_ms"};
  const Metric HostRun{"host_run_s", Med(false, EvalTime), "s"};
  const Metric Setup{"setup_s", Med(false, SetupTime), "s"};
  const Metric PeakRss{"peak_rss_mb", PeakRssMb, "MiB"};
  const Metric FailRate{"fail_rate",
                        ratio(Failed, static_cast<double>(Attempted)),
                        "fraction"};
  std::printf("perfbench: %zu evaluations (%u untraced, %u traced), %u "
              "failed; host medians over %u untraced samples\n",
              Attempted, Untraced, TracedReps, Failed, UntracedOk);
  for (const Metric &M :
       {VMakespan, VGcPauseMax, HostRun, Setup, PeakRss, FailRate})
    std::printf("  %-32s %.9g %s\n", M.Name, M.Value, M.Unit);
  auto Distribution = [&](const char *Name, auto Get) {
    std::vector<double> Xs;
    for (const Rep &R : H.Reps)
      if (R.Failure.empty() && !R.Traced)
        Xs.push_back(Get(R));
    std::sort(Xs.begin(), Xs.end());
    if (!Xs.empty())
      std::printf("  %-32s min %.4g, median %.4g, max %.4g s over %zu "
                  "samples\n",
                  Name, Xs.front(), median(Xs), Xs.back(), Xs.size());
  };
  std::printf("perfbench: host times above are at the reference speed; raw "
              "wall times and the speed probe:\n");
  Distribution("host_run_s (raw)", EvalTime);
  Distribution("setup_s (raw)", SetupTime);
  Distribution("speed.probe", [](const Rep &R) {
    return ProbeReferenceS / R.Speed;
  });

  std::vector<Metric> Reported;
  if (!Traced) {
    // vgc_pause_max_ms and fail_rate are 0 on healthy runs (the former on
    // every workload that never collects), and a bound that is a share of
    // a zero median is meaningless: the JSON carries them as the per-layer
    // vgc_pause_max_ms and the result's "failed" count.
    Reported = {VMakespan, HostRun, Setup, PeakRss};
  } else {
    double Futures = C("core.futures"), Inlined = C("core.inlined");
    double Emitted = C("compiler.touches_emitted");
    double Eliminated = C("compiler.touches_eliminated");
    double GcNs = Med(false, [](const Rep &R) { return double(R.GcHostNs); });
    Reported = {
        {"reader.ns_per_byte",
         Med(false, [](const Rep &R) { return R.ReadS * 1e9; }) /
             static_cast<double>(H.Source.size()),
         "ns/byte"},
        {"compiler.load_ms",
         Med(false, [](const Rep &R) { return R.CompileHostNs * 1e-6; }),
         "ms"},
        {"compiler.forms", C("compiler.forms"), "count"},
        {"compiler.touch_elim_frac", ratio(Eliminated, Emitted + Eliminated),
         "fraction"},
        {"engine.construct_ms",
         Med(false, [](const Rep &R) { return R.ConstructS * 1e3; }), "ms"},
        {"vm.instructions", C("vm.instructions"), "count"},
        {"vm.touches", C("vm.touches"), "count"},
        {"vm.ns_per_insn",
         ratio(Med(false, MutatorNs), C("vm.instructions")), "ns/insn"},
        {"sim.ns_per_proc_cycle",
         ratio(Med(false, MutatorNs), C("busy_cycles") + C("idle_cycles")),
         "ns/cycle"},
        {"core.futures", Futures, "count"},
        {"core.inlined", Inlined, "count"},
        {"core.inline_frac", ratio(Inlined, Futures + Inlined), "fraction"},
        {"core.touch_blocked", C("core.touch_blocked"), "count"},
        {"core.future_step_cycles", C("core.future_step_cycles"), "cycles"},
        {"core.touch_wait_p50_cycles", C("core.touch_wait_p50_cycles"),
         "cycles"},
        {"core.touch_wait_p99_cycles", C("core.touch_wait_p99_cycles"),
         "cycles"},
        {"core.task_lifetime_p50_cycles", C("core.task_lifetime_p50_cycles"),
         "cycles"},
        {"core.sem_wait_p99_cycles", C("core.sem_wait_p99_cycles"), "cycles"},
        {"sched.steal_attempts", C("sched.steal_attempts"), "count"},
        {"sched.steals", C("sched.steals"), "count"},
        {"sched.steal_success_frac",
         ratio(C("sched.steals"), C("sched.steal_attempts")), "fraction"},
        {"sched.idle_frac", ratio(C("idle_cycles"), ProcCycles), "fraction"},
        {"sched.steal_latency_p99_cycles",
         C("sched.steal_latency_p99_cycles"), "cycles"},
        {"gc.collections", C("gc.collections"), "count"},
        {"gc.pause_total_cycles", C("gc.pause_total_cycles"), "cycles"},
        {"gc.pause_max_cycles", C("gc.pause_max_cycles"), "cycles"},
        VGcPauseMax,
        {"gc.words_copied", C("gc.words_copied"), "count"},
        {"gc.proc_cycle_frac", ratio(C("gc_cycles"), ProcCycles), "fraction"},
        // Mean over busiest processor's copying work in the last collection.
        {"gc.balance_last",
         ratio(C("gc.last_work_cycles") / W->Procs,
               C("gc.last_max_proc_work_cycles")),
         "fraction"},
        {"gc.host_ms", GcNs * 1e-6, "ms"},
        {"gc.ns_per_word", ratio(GcNs, C("gc.words_copied")), "ns/word"},
        {"obs.trace_events", Cnt(TV, "obs.trace_events"), "count"},
        {"obs.trace_overhead_frac",
         ratio(Med(true, EvalTime), HostRun.Value) - 1.0,
         "fraction"},
        {"cp.work_cycles", Cnt(TV, "cp.work_cycles"), "cycles"},
        {"cp.span_cycles", Cnt(TV, "cp.span_cycles"), "cycles"},
        {"cp.parallelism",
         ratio(Cnt(TV, "cp.work_cycles"), Cnt(TV, "cp.span_cycles")),
         "ratio"},
    };
    std::printf("perfbench: per-layer metrics (host figures from untraced "
                "repetitions, cp.* and obs.* from traced ones)\n");
    for (const Metric &M : Reported)
      std::printf("  %-32s %.9g %s\n", M.Name, M.Value, M.Unit);
    if (!SpansPath.empty()) {
      if (H.Log.write(SpansPath, Origin))
        std::printf("perfbench: spans written to %s\n", SpansPath.c_str());
      else
        H.violation("cannot write spans to " + SpansPath);
    }
  }

  for (const std::string &What : H.Violations)
    std::printf("perfbench: INVARIANT VIOLATED: %s\n", What.c_str());
  bool Correct = Failed == 0 && H.Violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %u, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Reported.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Reported[I].Name, Reported[I].Value,
                Reported[I].Unit);
  std::printf("}}\n");
  return 0;
}
