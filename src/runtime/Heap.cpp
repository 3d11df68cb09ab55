//===----------------------------------------------------------------------===//
///
/// \file
/// Heap implementation: chunked bump allocation over two semispaces plus a
/// permanent area.
///
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <cassert>
#include <cstring>
#include <new>

#include <sys/mman.h>

using namespace mult;

Heap::Heap(const Config &C) : Cfg(C) {
  assert(Cfg.SemispaceWords >= Cfg.ChunkWords && "semispace smaller than a chunk");
  assert(Cfg.LargeObjectWords <= Cfg.ChunkWords &&
         "large-object threshold must fit a chunk");
  assert(Cfg.NumAllocators >= 1 && "need at least one allocator");
  size_t Bytes = Cfg.SemispaceWords * 2 * sizeof(uint64_t);
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  Buffer = std::unique_ptr<uint64_t[], Unmap>(static_cast<uint64_t *>(P),
                                              Unmap{Bytes});
  Spaces[0] = Buffer.get();
  Spaces[1] = Buffer.get() + Cfg.SemispaceWords;
  Chunks.resize(Cfg.NumAllocators);
  GcChunks.resize(Cfg.NumAllocators);
}

void Heap::Unmap::operator()(uint64_t *P) const { munmap(P, Bytes); }

bool Heap::refillChunk(ChunkState &Chunk, int SpaceIdx, size_t &GlobalCursor) {
  (void)SpaceIdx;
  if (GlobalCursor + Cfg.ChunkWords > Cfg.SemispaceWords) {
    // Hand out a final partial chunk if one remains.
    if (GlobalCursor >= Cfg.SemispaceWords)
      return false;
    Chunk.Cur = GlobalCursor;
    Chunk.End = Cfg.SemispaceWords;
    GlobalCursor = Cfg.SemispaceWords;
    return true;
  }
  Chunk.Cur = GlobalCursor;
  Chunk.End = GlobalCursor + Cfg.ChunkWords;
  GlobalCursor += Cfg.ChunkWords;
  return true;
}

Heap::AllocResult Heap::allocate(unsigned AllocatorId, uint64_t Now,
                                 TypeTag Tag, uint32_t SizeWords,
                                 uint8_t Flags, uint16_t Aux) {
  assert(AllocatorId < Chunks.size() && "bad allocator id");
  assert(SizeWords >= 1 && "objects carry at least one payload word");

  uint32_t Total = SizeWords + 1;
  AllocResult R;

  // A wedged heap (to-space overflow mid-copy) can satisfy nothing, and a
  // mutator request while a collection runs is a guest-level fault, not a
  // host invariant: fail the allocation and let the engine surface a
  // structured heap-exhausted result.
  if (Collecting || Wedged) {
    R.Cycles = heapcost::ChunkBump;
    return R;
  }

  // Large objects go straight to the global heap (paper: avoids chunk
  // fragmentation; no locality penalty on a bus-based machine).
  if (Total >= Cfg.LargeObjectWords) {
    uint64_t LockCycles = GlobalLock.acquire(Now, heapcost::GlobalLockHold);
    if (GlobalFree + Total > Cfg.SemispaceWords) {
      R.Cycles = heapcost::LargeObject + LockCycles;
      return R; // GC needed.
    }
    Object *O = objectAt(ActiveSpace, GlobalFree);
    GlobalFree += Total;
    O->initHeader(Tag, SizeWords, Flags);
    O->setAux(Aux);
    R.Obj = O;
    R.Cycles = heapcost::LargeObject + LockCycles;
    return R;
  }

  ChunkState &Chunk = Chunks[AllocatorId];
  if (Chunk.Cur + Total > Chunk.End) {
    // Replenish from the global heap under the lock.
    uint64_t LockCycles = GlobalLock.acquire(Now, heapcost::GlobalLockHold);
    if (!refillChunk(Chunk, ActiveSpace, GlobalFree)) {
      R.Cycles = heapcost::ChunkRefill + LockCycles;
      return R; // GC needed.
    }
    R.Cycles += heapcost::ChunkRefill + LockCycles;
    if (Chunk.Cur + Total > Chunk.End) {
      // A fresh chunk that still can't fit it (object just below the large
      // threshold, partial trailing chunk). Treat as exhaustion.
      return R;
    }
  }

  Object *O = objectAt(ActiveSpace, Chunk.Cur);
  Chunk.Cur += Total;
  O->initHeader(Tag, SizeWords, Flags);
  O->setAux(Aux);
  R.Obj = O;
  R.Cycles += heapcost::ChunkBump;
  return R;
}

Object *Heap::allocatePermanent(TypeTag Tag, uint32_t SizeWords,
                                uint8_t Flags) {
  assert(SizeWords >= 1 && "objects carry at least one payload word");
  uint32_t Total = SizeWords + 1;
  if (PermanentBlockUsed + Total > PermanentBlockCap) {
    size_t BlockWords = std::max<size_t>(Total, size_t(1) << 16);
    PermanentBlocks.push_back(std::make_unique<uint64_t[]>(BlockWords));
    PermanentBlockUsed = 0;
    PermanentBlockCap = BlockWords;
  }
  auto *O = reinterpret_cast<Object *>(PermanentBlocks.back().get() +
                                       PermanentBlockUsed);
  PermanentBlockUsed += Total;
  PermanentUsed += Total;
  O->initHeader(Tag, SizeWords,
                static_cast<uint8_t>(Flags | Object::FlagPermanent));
  if (!(Flags & Object::FlagRaw))
    PermanentScannable.push_back(O);
  return O;
}

std::pair<size_t, size_t> Heap::staticAreaSegment(unsigned I,
                                                  unsigned NumSegments) const {
  assert(NumSegments > 0 && I < NumSegments && "bad segment request");
  size_t N = PermanentScannable.size();
  return {N * I / NumSegments, N * (I + 1) / NumSegments};
}

bool Heap::beginCollection() {
  if (Collecting || Wedged)
    return false;
  Collecting = true;
  GcGlobalFree = 0;
  for (ChunkState &C : GcChunks)
    C = ChunkState();
  return true;
}

void Heap::markWedged(std::string Reason) {
  Wedged = true;
  WedgedReason = std::move(Reason);
  // The aborted collection never flips; drop the Collecting flag so the
  // engine can keep reading from-space objects (they are still intact —
  // copied objects leave forwarding pointers, not garbage).
  Collecting = false;
}

Object *Heap::copyAllocate(unsigned AllocatorId, uint32_t TotalWords) {
  assert(Collecting && "copyAllocate outside a collection");
  assert(AllocatorId < GcChunks.size() && "bad allocator id");
  int ToSpace = 1 - ActiveSpace;

  if (TotalWords >= Cfg.LargeObjectWords) {
    if (GcGlobalFree + TotalWords > Cfg.SemispaceWords)
      return nullptr;
    Object *O = objectAt(ToSpace, GcGlobalFree);
    GcGlobalFree += TotalWords;
    return O;
  }

  ChunkState &Chunk = GcChunks[AllocatorId];
  if (Chunk.Cur + TotalWords > Chunk.End) {
    if (!refillChunk(Chunk, ToSpace, GcGlobalFree))
      return nullptr;
    if (Chunk.Cur + TotalWords > Chunk.End)
      return nullptr;
  }
  Object *O = objectAt(ToSpace, Chunk.Cur);
  Chunk.Cur += TotalWords;
  return O;
}

void Heap::endCollection() {
  assert(Collecting && "no collection running");
  Collecting = false;
#ifndef NDEBUG
  // Poison the from-space so stale pointers fault fast in debug builds.
  // Every from-space object, chunked or large, lies below GlobalFree;
  // the words above it were never handed out, and leaving them alone
  // keeps their pages uncommitted.
  std::memset(Spaces[ActiveSpace], 0xAB, GlobalFree * sizeof(uint64_t));
#endif
  ActiveSpace = 1 - ActiveSpace;
  // Survivors sit below GcGlobalFree, except that GC chunks may have
  // unused tails. Conservatively resume global allocation at the high-water
  // mark; the chunk tails are wasted until the next flip, exactly like a
  // real chunked collector.
  GlobalFree = GcGlobalFree;
  for (ChunkState &C : Chunks)
    C = ChunkState();
}

bool Heap::inActiveSpace(const Object *O) const {
  auto *P = reinterpret_cast<const uint64_t *>(O);
  return P >= Spaces[ActiveSpace] && P < Spaces[ActiveSpace] + Cfg.SemispaceWords;
}

bool Heap::inToSpace(const Object *O) const {
  assert(Collecting && "inToSpace is only meaningful during a collection");
  auto *P = reinterpret_cast<const uint64_t *>(O);
  int ToSpace = 1 - ActiveSpace;
  return P >= Spaces[ToSpace] && P < Spaces[ToSpace] + Cfg.SemispaceWords;
}

int Heap::debugSpaceOf(const Object *O) const {
  auto *P = reinterpret_cast<const uint64_t *>(O);
  for (int S = 0; S < 2; ++S)
    if (P >= Spaces[S] && P < Spaces[S] + Cfg.SemispaceWords)
      return S;
  return -1;
}

size_t Heap::usedWords() const {
  // GlobalFree counts handed-out chunks as used; that is the honest number
  // for "can I still allocate".
  return GlobalFree;
}
