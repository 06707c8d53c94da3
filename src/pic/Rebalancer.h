//===-- pic/Rebalancer.h - Occupancy-driven shard/tile re-split -*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Imbalance-driven repartitioning of the PIC loop's 1-D slab
/// decompositions. The static split (exec/SlabPartition.h slabRange)
/// assumes uniform occupancy; a drifting slab or a density gradient
/// concentrates particles in a few x-planes and one deposit tile ends
/// up owning most of the scatter work while the rest idle. (The push
/// needs no re-split: it is one launch whose even particle-index split
/// is already balanced, since every particle costs the same push.)
///
/// Design constraint: the trigger must fire on the *same step* on every
/// backend, or runs with rebalancing enabled would stop being
/// bit-comparable across backends. So the skew metric is a pure
/// function of particle positions — a per-x-plane occupancy histogram
/// (one O(N) pass every RebalanceEveryNSteps) evaluated against the
/// rebalancer's own block boundaries — never ShardStat::BusyNs (timing
/// noise) or ShardStat::Items (counts launch items, which for deposit
/// launches are tiles, not particles, and depend on the backend's tile
/// default).
///
/// What a fired repartition changes and what it preserves:
///  - deposit tiles move their plane boundaries (bit-preserving for ANY
///    boundaries: every J node keeps exactly one owner and the reduce
///    order is fixed — the PR 2 determinism argument is
///    boundary-independent);
///  - the ensemble is re-sorted to restore slab locality — the ONE
///    bit-visible effect. picStateHash is particle-order-sensitive, so
///    a rebalanced run's hash differs from a non-rebalanced run's by a
///    permutation (conservation-gated), while rebalanced runs of
///    different backends still match bitwise (the sort is host-side and
///    identical everywhere).
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_REBALANCER_H
#define HICHI_PIC_REBALANCER_H

#include "exec/SlabPartition.h"
#include "pic/ParticleSorter.h"

#include <vector>

namespace hichi {
namespace pic {

/// Running counters of the rebalancer, exposed through
/// PicSimulation::rebalanceStats() (pic_langmuir --rebalance prints
/// them; the graph-interplay test checks Fires against the recapture
/// ledger).
struct RebalanceStats {
  long long Checks = 0; ///< skew evaluations (every RebalanceEveryNSteps)
  long long Fires = 0;  ///< repartitions actually triggered
  double LastSkew = 0;  ///< skew at the most recent check
  double MaxSkew = 0;   ///< worst skew ever observed
};

/// Decides *when* to repartition and *where* the new boundaries go.
/// Owns a per-x-plane occupancy histogram and a small set of
/// evaluation blocks (initially the even split). check() measures the
/// histogram, computes skew = max block weight over mean, and — past
/// the threshold — refits its own blocks to the weighted split so the
/// metric self-normalizes: right after a fire the skew of the new
/// blocks is ~1, and only renewed drift re-trips it.
///
/// The owner (PicSimulation) translates a fired check into the actual
/// re-split: sortByCell for locality, planeBoundaries() for the deposit
/// tiles, plus a partition-epoch bump so a captured step graph
/// recaptures.
template <typename Real> class Rebalancer {
public:
  Rebalancer(GridSize Size, Vector3<Real> Origin, Vector3<Real> Step,
             double Threshold, Index EvalBlocks)
      : Indexer(Size, Origin, Step), Threshold(Threshold) {
    const Index B = exec::clampSlabCount(Size.Nx, EvalBlocks);
    EvalBounds.resize(std::size_t(B) + 1);
    for (Index S = 0; S <= B; ++S)
      EvalBounds[std::size_t(S)] =
          S == B ? Size.Nx : exec::slabRange(Size.Nx, B, S).Begin;
    Occupancy.assign(std::size_t(Size.Nx), 0.0);
  }

  /// Re-bases the occupancy indexer on a moved window origin so the
  /// histogram keeps measuring *logical* x-planes after a window shift
  /// (plane 0 = the window's trailing edge, wherever the window sits).
  void refreshOrigin(const Vector3<Real> &Origin) { Indexer.setOrigin(Origin); }

  double threshold() const { return Threshold; }
  Index evalBlockCount() const { return Index(EvalBounds.size()) - 1; }
  const RebalanceStats &stats() const { return Stats; }
  const std::vector<double> &occupancy() const { return Occupancy; }

  /// Skew of the current evaluation blocks over the last measured
  /// histogram: max block weight divided by the mean block weight
  /// (1 = perfectly balanced, B = everything in one block). Empty
  /// ensemble measures 0 (never trips).
  double skew() const {
    double Total = 0, MaxBlock = 0;
    for (std::size_t S = 0; S + 1 < EvalBounds.size(); ++S) {
      double Block = 0;
      for (Index P = EvalBounds[S]; P < EvalBounds[S + 1]; ++P)
        Block += Occupancy[std::size_t(P)];
      Total += Block;
      MaxBlock = Block > MaxBlock ? Block : MaxBlock;
    }
    if (!(Total > 0))
      return 0;
    return MaxBlock * double(evalBlockCount()) / Total;
  }

  /// Measures the occupancy histogram from \p Particles, evaluates the
  /// skew, and past the threshold refits the evaluation blocks to the
  /// weighted split. \returns true when the owner should repartition.
  template <typename Array> bool check(const Array &Particles) {
    ++Stats.Checks;
    Occupancy = xPlaneOccupancy(Particles, Indexer);
    const double S = skew();
    Stats.LastSkew = S;
    Stats.MaxSkew = S > Stats.MaxSkew ? S : Stats.MaxSkew;
    if (!(S > Threshold))
      return false;
    ++Stats.Fires;
    EvalBounds = exec::weightedSlabBoundaries(Occupancy, evalBlockCount());
    return true;
  }

  /// Occupancy-weighted plane boundaries for \p Count slabs, from the
  /// last measured histogram: the deposit tiles' new split.
  std::vector<Index> planeBoundaries(Index Count) const {
    return exec::weightedSlabBoundaries(Occupancy, Count);
  }

private:
  CellIndexer<Real> Indexer;
  double Threshold;
  std::vector<Index> EvalBounds;  ///< evalBlockCount()+1 plane boundaries
  std::vector<double> Occupancy;  ///< per-x-plane counts, last measure
  RebalanceStats Stats;
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_REBALANCER_H
