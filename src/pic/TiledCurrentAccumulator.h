//===-- pic/TiledCurrentAccumulator.h - Parallel current scatter -*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backend-parallel current deposition. The Esirkepov/direct scatter is a
/// cross-particle read-modify-write into the Yee grid's J lattices, so it
/// cannot be parallelized over particles the way the push stage is — two
/// particles in neighbouring cells write the same nodes. Instead the
/// grid's x-planes are partitioned into disjoint *tiles* (x-slabs,
/// following the sorter's x-major cell order, so a cell-sorted ensemble
/// yields nearly contiguous per-tile particle lists), and one PIC-step
/// deposition becomes three phases:
///
///   1. bin (host, O(N)): each particle's scheme footprint (stencil plus
///      the CIC/Esirkepov staggering halo, see the footprint helpers in
///      CurrentDeposition.h) decides which tiles it can write; its index
///      is appended to those tiles' lists, so every list is ascending;
///   2. accumulate (one backend launch, items = tiles, GrainHint = 1):
///      each tile replays its list in order into a private slab lattice,
///      discarding writes that fall outside its owned planes;
///   3. reduce (one backend launch, items = tiles): each tile adds its
///      slab into the grid; tiles are walked in ascending order within
///      every block.
///
/// Determinism argument (docs/ARCHITECTURE.md spells it out in full):
/// every J node is owned by exactly one tile, so it receives exactly the
/// contributions the serial particle-order scatter gives it, in the same
/// order, folded from the same +0.0 — and the reduction adds that partial
/// sum onto the grid's cleared +0.0, a bitwise identity. Results are
/// therefore bit-identical to the serial scatter for every registered
/// backend, thread count and tile count (enforced by
/// tests/pic/TiledDepositionTest.cpp); the fixed reduction order is
/// belt-and-braces on top of the disjoint ownership.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_TILEDCURRENTACCUMULATOR_H
#define HICHI_PIC_TILEDCURRENTACCUMULATOR_H

#include "core/ParticleTypes.h"
#include "exec/ExecutionBackend.h"
#include "exec/SlabPartition.h"
#include "pic/CurrentDeposition.h"
#include "pic/YeeGrid.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

namespace hichi {
namespace pic {

/// A current sink restricted to one tile's owned x-planes: writes whose
/// wrapped x-node falls outside [PlaneBegin, PlaneEnd) are dropped (the
/// neighbouring tile owns them and replays the same particle itself).
template <typename Real> class TileCurrentSink {
public:
  TileCurrentSink(Real *Jx, Real *Jy, Real *Jz, Index PlaneBegin,
                  Index PlaneEnd, GridSize Size)
      : Jx(Jx), Jy(Jy), Jz(Jz), PlaneBegin(PlaneBegin), PlaneEnd(PlaneEnd),
        Size(Size) {}

  /// Plane-skip hook for the scatter kernels: true iff this tile owns
  /// the (wrapped) x-plane \p I.
  bool wantsX(Index I) const {
    const Index WI = wrapNear(I, Size.Nx);
    return WI >= PlaneBegin && WI < PlaneEnd;
  }

  void addJx(Index I, Index J, Index K, Real V) {
    if (Real *P = slot(Jx, I, J, K))
      *P += V;
  }
  void addJy(Index I, Index J, Index K, Real V) {
    if (Real *P = slot(Jy, I, J, K))
      *P += V;
  }
  void addJz(Index I, Index J, Index K, Real V) {
    if (Real *P = slot(Jz, I, J, K))
      *P += V;
  }

private:
  /// Periodic wrap for stencil indices. They are normally within
  /// [-1, N+1]: the CIC/Esirkepov bases come from floor() of in-box
  /// node-relative positions (old positions are wrapped every step), so
  /// on this hot path one unsigned compare passes in-box indices, one
  /// add or subtract wraps the edge nodes, and only an index farther
  /// out (a corrupt, far-displaced particle) pays the %-based
  /// ScalarLattice::wrap. O(1) for every input.
  static Index wrapNear(Index I, Index N) {
    if (std::size_t(I) < std::size_t(N))
      return I;
    const Index Near = I < 0 ? I + N : I - N;
    return std::size_t(Near) < std::size_t(N) ? Near
                                              : ScalarLattice<Real>::wrap(I, N);
  }

  Real *slot(Real *Base, Index I, Index J, Index K) const {
    const Index WI = wrapNear(I, Size.Nx);
    if (WI < PlaneBegin || WI >= PlaneEnd)
      return nullptr;
    const Index WJ = wrapNear(J, Size.Ny);
    const Index WK = wrapNear(K, Size.Nz);
    return Base + ((WI - PlaneBegin) * Size.Ny + WJ) * Size.Nz + WK;
  }

  Real *Jx, *Jy, *Jz;
  Index PlaneBegin, PlaneEnd;
  GridSize Size;
};

/// Runs the per-step current deposition over an exec::ExecutionBackend,
/// bit-identical to the serial particle-order scatter (see the file
/// comment for the three-phase scheme and the determinism argument).
/// One accumulator instance is meant to live as long as its simulation:
/// tile lists and slab lattices are reused across steps.
template <typename Real> class TiledCurrentAccumulator {
public:
  /// Partitions the \p Size.Nx x-planes into \p RequestedTiles slabs
  /// via the shared slab helper (exec/SlabPartition.h — the identical
  /// clamp and even split the FDTD partition and the sharded backend
  /// use, degenerate requests included). One tile means the classic
  /// serial scatter with no private slabs at all.
  TiledCurrentAccumulator(GridSize Size, Vector3<Real> Origin,
                          Vector3<Real> Step, int RequestedTiles)
      : Size(Size), Origin(Origin), Step(Step) {
    const Index NumTiles =
        exec::clampSlabCount(Size.Nx, Index(RequestedTiles));
    Tiles.resize(std::size_t(NumTiles));
    OwnerOfPlane.resize(std::size_t(Size.Nx));
    const std::size_t PlaneElems =
        std::size_t(Size.Ny) * std::size_t(Size.Nz);
    for (Index T = 0; T < NumTiles; ++T) {
      Tile &Slab = Tiles[std::size_t(T)];
      const exec::SlabRange R = exec::slabRange(Size.Nx, NumTiles, T);
      Slab.PlaneBegin = R.Begin;
      Slab.PlaneEnd = R.End;
      for (Index P = Slab.PlaneBegin; P < Slab.PlaneEnd; ++P)
        OwnerOfPlane[std::size_t(P)] = int(T);
      if (NumTiles > 1) {
        const std::size_t Elems =
            std::size_t(Slab.PlaneEnd - Slab.PlaneBegin) * PlaneElems;
        Slab.Jx.assign(Elems, Real(0));
        Slab.Jy.assign(Elems, Real(0));
        Slab.Jz.assign(Elems, Real(0));
      }
    }
  }

  int tileCount() const { return int(Tiles.size()); }

  /// \returns the current tileCount()+1 plane boundaries (tile T owns
  /// planes [B[T], B[T+1])) — what the rebalance tests inspect.
  std::vector<Index> tileBoundaries() const {
    std::vector<Index> Bounds;
    Bounds.reserve(Tiles.size() + 1);
    Bounds.push_back(Tiles.empty() ? 0 : Tiles.front().PlaneBegin);
    for (const Tile &Slab : Tiles)
      Bounds.push_back(Slab.PlaneEnd);
    return Bounds;
  }

  /// Moves the tile plane boundaries to \p Boundaries (tileCount()+1
  /// ascending planes, front 0 and back Nx — e.g. from
  /// exec::weightedSlabBoundaries over a measured occupancy histogram).
  /// The tile *count* is fixed at construction; only the ranges move,
  /// and the private J slabs are resized (and re-zeroed) to the new
  /// extents. Deposition stays bit-identical to the serial scatter for
  /// ANY boundaries — every J node keeps exactly one owner and the
  /// reduce order is fixed — so a retile changes performance, never
  /// bits. Callers in step-graph mode must still recapture: not for the
  /// deposit (the kernels read the tile table live), but because the
  /// companion push re-split bakes its block ranges into the graph.
  void retile(const std::vector<Index> &Boundaries) {
    assert(Index(Boundaries.size()) == Index(Tiles.size()) + 1 &&
           "boundary count must match the fixed tile count");
    assert(Boundaries.front() == 0 && Boundaries.back() == Size.Nx &&
           "boundaries must tile [0, Nx)");
    const std::size_t PlaneElems =
        std::size_t(Size.Ny) * std::size_t(Size.Nz);
    const Index NumTiles = Index(Tiles.size());
    for (Index T = 0; T < NumTiles; ++T) {
      Tile &Slab = Tiles[std::size_t(T)];
      Slab.PlaneBegin = Boundaries[std::size_t(T)];
      Slab.PlaneEnd = Boundaries[std::size_t(T) + 1];
      for (Index P = Slab.PlaneBegin; P < Slab.PlaneEnd; ++P)
        OwnerOfPlane[std::size_t(P)] = int(T);
      if (NumTiles > 1) {
        const std::size_t Elems =
            std::size_t(Slab.PlaneEnd - Slab.PlaneBegin) * PlaneElems;
        Slab.Jx.assign(Elems, Real(0));
        Slab.Jy.assign(Elems, Real(0));
        Slab.Jz.assign(Elems, Real(0));
      }
    }
  }

  /// Deposits the currents of every particle of \p View moving from
  /// \p OldPos[i] to \p NewPos[i] (both *unwrapped*) into \p Grid's J
  /// lattices, Esirkepov when \p ChargeConserving else direct CIC,
  /// through \p Backend. \p Stats accumulates the launches' kernel
  /// time. The grid's J lattices must have been cleared this step.
  template <typename ParticleView>
  void deposit(YeeGrid<Real> &Grid, const ParticleView &View,
               const Vector3<Real> *OldPos, const Vector3<Real> *NewPos,
               const ParticleTypeInfo<Real> *Types, Real Dt,
               bool ChargeConserving, exec::ExecutionBackend &Backend,
               const exec::ExecutionContext &Ctx, RunStats &Stats) {
    exec::KernelCache Keep;
    submitDeposit(Grid, View, OldPos, NewPos, Types, Dt, ChargeConserving,
                  Backend, Ctx, Stats, Keep)
        .wait();
  }

  /// The event-chained form of deposit(): bins as a one-item launch (so
  /// a replayed step graph rebins every step), then submits the
  /// accumulate and reduce phases as non-blocking launches (reduce
  /// depends on accumulate) and \returns the reduction's event — the
  /// handle the backend-parallel field solve chains its E advance on
  /// (only that launch reads J, so the first FDTD half-step may overlap
  /// the reduction). \p After gates the first phase that reads particle
  /// endpoints or writes the grid (the PIC step passes its push-stage
  /// and J-clear events; host-ordered callers leave it empty). Kernel bodies
  /// are parked in \p Keep (a local or a reusable KernelCache); wait the
  /// returned event (and only then read \p Stats or drop \p Keep) before
  /// touching the J lattices. On synchronous backends everything executes
  /// inline and the returned event is already complete.
  template <typename ParticleView>
  exec::ExecEvent
  submitDeposit(YeeGrid<Real> &Grid, const ParticleView &View,
                const Vector3<Real> *OldPos, const Vector3<Real> *NewPos,
                const ParticleTypeInfo<Real> *Types, Real Dt,
                bool ChargeConserving, exec::ExecutionBackend &Backend,
                const exec::ExecutionContext &Ctx, RunStats &Stats,
                exec::KernelCache &Keep,
                const std::vector<exec::ExecEvent> &After = {}) {
    const Index N = View.size();
    // Re-read the (possibly window-shifted) origin: binning and the
    // scatter kernels work in logical coordinates relative to the live
    // window. A shift bumps the partition epoch, so a captured step
    // graph recaptures through here before any post-shift replay — the
    // by-value captures below can never go stale.
    Origin = Grid.origin();
    const Vector3<Real> D = Step, O = Origin;

    if (tileCount() == 1) {
      // One tile owns the whole grid: the plain serial particle-order
      // scatter as a single launch item (nothing to partition).
      YeeGrid<Real> *GridPtr = &Grid;
      auto Block = [=](Index, Index, int, int) {
        GridCurrentSink<Real> Sink(*GridPtr);
        for (Index I = 0; I < N; ++I)
          scatterParticle(Sink, View[I], OldPos[I], NewPos[I], Types, D, O,
                          Dt, ChargeConserving);
      };
      return submitOverTiles(Backend, Ctx, Stats, 1, std::move(Block), After,
                             Keep);
    }

    // Phase 1 — binning, one item gated on \p After, so the bins always
    // reflect this step's moves before the accumulate launches read the
    // tile lists.
    TiledCurrentAccumulator *Self = this;
    auto BinBlock = [=](Index, Index, int, int) {
      Self->binParticles(OldPos, NewPos, ChargeConserving, N);
    };
    const std::vector<exec::ExecEvent> AccDeps = {submitOverTiles(
        Backend, Ctx, Stats, 1, std::move(BinBlock), After, Keep)};

    // Phase 2 — per-tile private accumulation. Tiles own disjoint plane
    // ranges, so any backend may run them in any order concurrently.
    // (The lambda takes absolute tile indices, so the full-launch and
    // per-shard submission shapes below share one body.)
    Tile *TilesPtr = Tiles.data();
    const GridSize Sz = Size;
    auto Accumulate = [=](Index Begin, Index End, int, int) {
      for (Index T = Begin; T < End; ++T) {
        Tile &Slab = TilesPtr[T];
        if (Slab.Particles.empty())
          continue;
        std::fill(Slab.Jx.begin(), Slab.Jx.end(), Real(0));
        std::fill(Slab.Jy.begin(), Slab.Jy.end(), Real(0));
        std::fill(Slab.Jz.begin(), Slab.Jz.end(), Real(0));
        TileCurrentSink<Real> Sink(Slab.Jx.data(), Slab.Jy.data(),
                                   Slab.Jz.data(), Slab.PlaneBegin,
                                   Slab.PlaneEnd, Sz);
        for (Index I : Slab.Particles)
          scatterParticle(Sink, View[I], OldPos[I], NewPos[I], Types, D, O,
                          Dt, ChargeConserving);
      }
    };

    // Phase 3 — reduction into the grid, ascending tile order within each
    // block. Owned plane ranges are disjoint, so tiles reduce race-free
    // in parallel; under a moving window the logical planes ring-map onto
    // physical storage (possibly straddling the seam), so each logical
    // plane translates to its own contiguous physical run — identical
    // element order, and at ring base 0 identical addresses, to the flat
    // single-run loop this generalizes.
    const std::size_t PlaneElems =
        std::size_t(Size.Ny) * std::size_t(Size.Nz);
    const Index XBase = Grid.Jx.xBase();
    Real *GJx = Grid.Jx.raw().data();
    Real *GJy = Grid.Jy.raw().data();
    Real *GJz = Grid.Jz.raw().data();
    auto Reduce = [=](Index Begin, Index End, int, int) {
      for (Index T = Begin; T < End; ++T) {
        const Tile &Slab = TilesPtr[T];
        if (Slab.Particles.empty())
          continue;
        for (Index P = Slab.PlaneBegin; P < Slab.PlaneEnd; ++P) {
          const std::size_t Dst =
              std::size_t(ScalarLattice<Real>::wrap(P + XBase, Sz.Nx)) *
              PlaneElems;
          const std::size_t Src =
              std::size_t(P - Slab.PlaneBegin) * PlaneElems;
          for (std::size_t E = 0; E < PlaneElems; ++E) {
            GJx[Dst + E] += Slab.Jx[Src + E];
            GJy[Dst + E] += Slab.Jy[Src + E];
            GJz[Dst + E] += Slab.Jz[Src + E];
          }
        }
      }
    };

    // Sharded backend: per-shard accumulate→reduce chains instead of a
    // global barrier between the phases. Each shard owns a contiguous
    // tile group (the shared slab split, so shard s gets the same tiles
    // every step); its reduce waits only its *own* accumulate — legal
    // because a group's reduction touches exactly its own tiles' plane
    // ranges, disjoint from every other group's. The returned join
    // event completes when every shard's reduce has, and the result is
    // bit-identical by the same disjoint-ownership argument as the
    // barriered shape (each tile's fold and reduction are unchanged).
    if (const int ShardsK = Backend.shardCount();
        ShardsK > 1 && tileCount() > 1) {
      const Index NumTiles = Index(tileCount());
      const Index Groups = exec::clampSlabCount(NumTiles, Index(ShardsK));
      std::vector<exec::ExecEvent> Reduced;
      Reduced.reserve(std::size_t(Groups));
      for (Index G = 0; G < Groups; ++G) {
        const exec::SlabRange R = exec::slabRange(NumTiles, Groups, G);
        const Index Tile0 = R.Begin;
        auto AccumulateGroup = [=](Index Begin, Index End, int S0, int S1) {
          Accumulate(Tile0 + Begin, Tile0 + End, S0, S1);
        };
        auto ReduceGroup = [=](Index Begin, Index End, int S0, int S1) {
          Reduce(Tile0 + Begin, Tile0 + End, S0, S1);
        };
        const exec::ExecEvent Accumulated = exec::submitCachedLaunch(
            Backend, Ctx, Stats, R.size(), /*GrainHint=*/1,
            std::move(AccumulateGroup), AccDeps, Keep,
            /*ShardAffinity=*/int(G));
        Reduced.push_back(exec::submitCachedLaunch(
            Backend, Ctx, Stats, R.size(), /*GrainHint=*/1,
            std::move(ReduceGroup), {Accumulated}, Keep,
            /*ShardAffinity=*/int(G)));
      }
      return exec::submitJoin(Backend, Ctx, Stats, Reduced, Keep);
    }

    const exec::ExecEvent Accumulated = submitOverTiles(
        Backend, Ctx, Stats, Index(tileCount()), std::move(Accumulate),
        AccDeps, Keep);
    return submitOverTiles(Backend, Ctx, Stats, Index(tileCount()),
                           std::move(Reduce), {Accumulated}, Keep);
  }

private:
  struct Tile {
    Index PlaneBegin = 0;          ///< first owned x-plane
    Index PlaneEnd = 0;            ///< one past the last owned x-plane
    std::vector<Index> Particles;  ///< ascending indices, rebuilt per step
    std::vector<Real> Jx, Jy, Jz;  ///< private slab lattices (empty if 1 tile)
  };

  /// One particle's scatter through \p Sink, both schemes.
  template <typename Sink, typename Proxy>
  static void scatterParticle(Sink &S, Proxy P, const Vector3<Real> &From,
                              const Vector3<Real> &To,
                              const ParticleTypeInfo<Real> *Types,
                              const Vector3<Real> &D, const Vector3<Real> &O,
                              Real Dt, bool ChargeConserving) {
    const Real MacroCharge = Types[P.type()].Charge * P.weight();
    if (ChargeConserving) {
      scatterCurrentEsirkepov(S, D, O, From, To, MacroCharge, Dt);
    } else {
      const Vector3<Real> V = (To - From) / Dt;
      scatterCurrentDirect(S, D, O, (From + To) * Real(0.5), V, MacroCharge);
    }
  }

  /// Phase 1 — bins particle indices into the tiles their scheme
  /// footprint can touch (at most 3 x-nodes, hence at most 3 owners).
  void binParticles(const Vector3<Real> *OldPos, const Vector3<Real> *NewPos,
                    bool ChargeConserving, Index N) {
    for (Tile &T : Tiles)
      T.Particles.clear();
    // The node-relative coordinates must be computed exactly as the
    // scatter kernels compute them (true division, same operand order):
    // an ulp of drift at a plane boundary would bin a particle away from
    // a tile its scatter actually writes.
    for (Index I = 0; I < N; ++I) {
      Index Lo, Hi;
      if (ChargeConserving) {
        esirkepovFootprintX((OldPos[I].X - Origin.X) / Step.X,
                            (NewPos[I].X - Origin.X) / Step.X, Lo, Hi);
      } else {
        const Real MidRel =
            ((OldPos[I].X + NewPos[I].X) * Real(0.5) - Origin.X) / Step.X;
        directFootprintX(MidRel, Lo, Hi);
      }
      int Owners[4];
      int NumOwners = 0;
      for (Index XI = Lo; XI <= Hi; ++XI) {
        const int T = OwnerOfPlane[std::size_t(
            ScalarLattice<Real>::wrap(XI, Size.Nx))];
        bool Seen = false;
        for (int W = 0; W < NumOwners; ++W)
          Seen = Seen || Owners[W] == T;
        if (!Seen)
          Owners[NumOwners++] = T;
      }
      for (int W = 0; W < NumOwners; ++W)
        Tiles[std::size_t(Owners[W])].Particles.push_back(I);
    }
  }

  /// One non-blocking backend launch over \p Items tiles, one
  /// schedulable chunk per tile (GrainHint = 1); the body is parked in
  /// \p Keep until the chain's final wait (the asynchronous lifetime
  /// contract).
  template <typename BlockFn>
  static exec::ExecEvent
  submitOverTiles(exec::ExecutionBackend &Backend,
                  const exec::ExecutionContext &Ctx, RunStats &Stats,
                  Index Items, BlockFn Block,
                  const std::vector<exec::ExecEvent> &DependsOn,
                  exec::KernelCache &Keep) {
    return exec::submitCachedLaunch(Backend, Ctx, Stats, Items,
                                    /*GrainHint=*/1, std::move(Block),
                                    DependsOn, Keep);
  }

  GridSize Size;
  Vector3<Real> Origin; ///< live window origin, re-read every submitDeposit
  Vector3<Real> Step;
  std::vector<Tile> Tiles;
  std::vector<int> OwnerOfPlane; ///< x-plane -> owning tile
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_TILEDCURRENTACCUMULATOR_H
