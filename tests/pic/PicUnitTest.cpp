//===-- tests/pic/PicUnitTest.cpp - Form factors, Yee grid, FDTD ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "pic/FdtdSolver.h"
#include "pic/FieldInterpolator.h"
#include "pic/FormFactor.h"
#include "pic/YeeGrid.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace hichi;
using namespace hichi::pic;

namespace {

//===----------------------------------------------------------------------===//
// Form factors
//===----------------------------------------------------------------------===//

template <typename Shape> class FormFactorTest : public ::testing::Test {};
using Shapes = ::testing::Types<NgpShape, CicShape, TscShape>;
TYPED_TEST_SUITE(FormFactorTest, Shapes);

TYPED_TEST(FormFactorTest, WeightsSumToOneEverywhere) {
  RandomStream<double> Rng(2);
  for (int Trial = 0; Trial < 200; ++Trial) {
    double X = Rng.uniform(-10.0, 10.0);
    EXPECT_NEAR((weightSum<TypeParam, double>(X)), 1.0, 1e-12) << X;
  }
}

TYPED_TEST(FormFactorTest, WeightsAreNonNegative) {
  RandomStream<double> Rng(3);
  for (int Trial = 0; Trial < 200; ++Trial) {
    Index Base;
    double W[TypeParam::Support];
    TypeParam::weights(Rng.uniform(-5.0, 5.0), Base, W);
    for (int I = 0; I < TypeParam::Support; ++I)
      EXPECT_GE(W[I], -1e-15);
  }
}

TEST(FormFactorTest, CicReproducesLinearFunctions) {
  // First-order shape: interpolating f(i) = i at x returns x.
  RandomStream<double> Rng(4);
  for (int Trial = 0; Trial < 100; ++Trial) {
    double X = Rng.uniform(0.0, 100.0);
    Index Base;
    double W[2];
    CicShape::weights(X, Base, W);
    EXPECT_NEAR(W[0] * double(Base) + W[1] * double(Base + 1), X, 1e-10);
  }
}

TEST(FormFactorTest, TscReproducesLinearFunctions) {
  // Second-order shape also reproduces linears (and quadratics' means).
  RandomStream<double> Rng(5);
  for (int Trial = 0; Trial < 100; ++Trial) {
    double X = Rng.uniform(0.0, 100.0);
    Index Base;
    double W[3];
    TscShape::weights(X, Base, W);
    double Sum = 0;
    for (int I = 0; I < 3; ++I)
      Sum += W[I] * double(Base + I);
    EXPECT_NEAR(Sum, X, 1e-10);
  }
}

TEST(FormFactorTest, NgpPicksNearestNode) {
  Index Base;
  double W[1];
  NgpShape::weights(2.4, Base, W);
  EXPECT_EQ(Base, 2);
  NgpShape::weights(2.6, Base, W);
  EXPECT_EQ(Base, 3);
}

//===----------------------------------------------------------------------===//
// ScalarLattice / YeeGrid
//===----------------------------------------------------------------------===//

TEST(ScalarLatticeTest, PeriodicIndexing) {
  ScalarLattice<double> L({4, 4, 4});
  L(1, 2, 3) = 9.0;
  EXPECT_DOUBLE_EQ(L(1 + 4, 2 - 4, 3 + 8), 9.0);
  EXPECT_DOUBLE_EQ(L(-3, 2, 3), 9.0);
}

TEST(ScalarLatticeTest, SumOfSquares) {
  ScalarLattice<double> L({2, 2, 2});
  L(0, 0, 0) = 3.0;
  L(1, 1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(L.sumOfSquares(), 25.0);
}

/// Besides the plain cases, wrapPosition's edge cases are pinned bit for
/// bit: an offset of 0, +-Len or 2 Len lands exactly on the origin; -0.0
/// wraps to +0.0; NaN stays NaN; 1e300 lands finite and inside the box;
/// and a tiny negative offset rounds up to exactly O + Len, just outside
/// the half-open box (the cell lookups tolerate it through their
/// periodic index wrap).
TEST(YeeGridTest, WrapPosition) {
  const YeeGrid<double> Unit({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  auto P = Unit.wrapPosition({4.5, -0.5, 2.0});
  EXPECT_NEAR(P.X, 0.5, 1e-12);
  EXPECT_NEAR(P.Y, 3.5, 1e-12);
  EXPECT_NEAR(P.Z, 2.0, 1e-12);

  // Len = 4 on every axis; origin 0 along x, -2 along y.
  const YeeGrid<double> G({4, 8, 16}, {0, -2, 1.5}, {1, 0.5, 0.25});
  auto WrapX = [&G](double Off) { return G.wrapPosition({Off, 0, 2}).X; };
  auto WrapY = [&G](double Off) {
    return G.wrapPosition({0, -2 + Off, 2}).Y;
  };
  for (double Off : {0.0, 4.0, -4.0, 8.0, -0.0}) {
    EXPECT_EQ(WrapX(Off), 0.0) << Off;
    EXPECT_FALSE(std::signbit(WrapX(Off))) << Off;
    EXPECT_EQ(WrapY(Off), -2.0) << Off;
  }
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(WrapX(NaN)));
  EXPECT_TRUE(std::isnan(WrapY(NaN)));
  for (double Far : {WrapX(1e300), WrapY(1e300) + 2}) {
    EXPECT_TRUE(std::isfinite(Far));
    EXPECT_GE(Far, 0.0);
    EXPECT_LT(Far, 4.0);
  }
  EXPECT_EQ(WrapX(-1e-300), 4.0);
  const YeeGrid<float> F({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  EXPECT_EQ(F.wrapPosition({-1e-9f, 0, 0}).X, 4.0f);
}

TEST(YeeGridTest, FieldEnergyOfUniformField) {
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex.fill(2.0); // E^2 = 4 at 64 nodes, dV = 1
  EXPECT_NEAR(G.fieldEnergy(), 64 * 4.0 / (8 * constants::Pi), 1e-10);
}

//===----------------------------------------------------------------------===//
// FDTD
//===----------------------------------------------------------------------===//

TEST(FdtdTest, CourantLimitFormula) {
  FdtdSolver<double> S(/*c=*/1.0);
  YeeGrid<double> G({8, 8, 8}, {0, 0, 0}, {1, 1, 1});
  EXPECT_NEAR(S.courantLimit(G), 1.0 / std::sqrt(3.0), 1e-12);
}

TEST(FdtdTest, UniformFieldsAreStationary) {
  // curl of a constant field vanishes: nothing may change in vacuum.
  FdtdSolver<double> S(1.0);
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex.fill(1.0);
  G.By.fill(-2.0);
  S.step(G, 0.2);
  EXPECT_DOUBLE_EQ(G.Ex(1, 2, 3), 1.0);
  EXPECT_DOUBLE_EQ(G.By(3, 0, 1), -2.0);
  EXPECT_DOUBLE_EQ(G.Ez(0, 0, 0), 0.0);
}

/// Initializes the fundamental standing/travelling plane-wave mode along x
/// with E_y and B_z staggered correctly for Yee.
static void initPlaneWave(YeeGrid<double> &G, int ModeCount) {
  const GridSize N = G.size();
  const double K = 2 * constants::Pi * ModeCount / double(N.Nx);
  for (Index I = 0; I < N.Nx; ++I)
    for (Index J = 0; J < N.Ny; ++J)
      for (Index K3 = 0; K3 < N.Nz; ++K3) {
        // Ey at (i, j+1/2, k) -> x = i; Bz at (i+1/2, j+1/2, k).
        G.Ey(I, J, K3) = std::sin(K * double(I));
        G.Bz(I, J, K3) = std::sin(K * (double(I) + 0.5));
      }
}

TEST(FdtdTest, VacuumEnergyIsConserved) {
  FdtdSolver<double> S(1.0);
  YeeGrid<double> G({32, 2, 2}, {0, 0, 0}, {1, 1, 1});
  initPlaneWave(G, 2);
  const double E0 = G.fieldEnergy();
  const double Dt = 0.5 * S.courantLimit(G);
  for (int Step = 0; Step < 200; ++Step)
    S.step(G, Dt);
  EXPECT_NEAR(G.fieldEnergy() / E0, 1.0, 0.01)
      << "vacuum FDTD must conserve energy to ~1%";
}

TEST(FdtdTest, PlaneWavePropagatesAtNearLightSpeed) {
  // Track the phase of the fundamental mode: after time T the travelling
  // wave sin(k(x - ct)) must have advanced by ~c T (within numerical
  // dispersion of the coarse grid).
  FdtdSolver<double> S(1.0);
  const int Nx = 64;
  YeeGrid<double> G({Nx, 2, 2}, {0, 0, 0}, {1, 1, 1});
  initPlaneWave(G, 1);
  const double K = 2 * constants::Pi / Nx;
  const double Dt = 0.5 * S.courantLimit(G);
  const int Steps = 400;
  for (int Step = 0; Step < Steps; ++Step)
    S.step(G, Dt);
  // Fit the phase of Ey via the discrete Fourier coefficient of mode 1.
  double Re = 0, Im = 0;
  for (Index I = 0; I < Nx; ++I) {
    Re += G.Ey(I, 0, 0) * std::cos(K * double(I));
    Im += G.Ey(I, 0, 0) * std::sin(K * double(I));
  }
  // Ey = sin(k x - phi): sum(Ey cos) = -(N/2) sin(phi), sum(Ey sin) =
  // (N/2) cos(phi), so phi = atan2(-Re, Im). E x B points along +x, so
  // phi advances as +omega t.
  double Phase = std::atan2(-Re, Im);
  double Expected = std::fmod(K * Dt * Steps, 2 * constants::Pi);
  double Diff = std::remainder(Phase - Expected, 2 * constants::Pi);
  EXPECT_NEAR(std::abs(Diff), 0.0, 0.1)
      << "phase velocity error beyond numerical dispersion budget";
}

TEST(FdtdTest, CurrentSourceDrivesEField) {
  // A uniform Jx for one step must produce Ex = -4 pi dt Jx.
  FdtdSolver<double> S(1.0);
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Jx.fill(0.25);
  const double Dt = 0.1;
  S.advanceE(G, Dt);
  EXPECT_NEAR(G.Ex(2, 2, 2), -4 * constants::Pi * Dt * 0.25, 1e-12);
}

//===----------------------------------------------------------------------===//
// Yee interpolation
//===----------------------------------------------------------------------===//

TEST(YeeInterpolatorTest, UniformFieldInterpolatesExactly) {
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex.fill(3.0);
  G.Bz.fill(-1.5);
  YeeInterpolator<double> Interp(G);
  RandomStream<double> Rng(6);
  for (int Trial = 0; Trial < 50; ++Trial) {
    Vector3<double> P(Rng.uniform(0, 4), Rng.uniform(0, 4), Rng.uniform(0, 4));
    auto F = Interp(P, 0, 0);
    EXPECT_NEAR(F.E.X, 3.0, 1e-12);
    EXPECT_NEAR(F.B.Z, -1.5, 1e-12);
    EXPECT_NEAR(F.E.Y, 0.0, 1e-15);
  }
}

TEST(YeeInterpolatorTest, RespectsStaggering) {
  // Put a delta on Ex at (i+1/2, j, k) = (1.5, 2, 2) and probe exactly
  // there: the interpolated Ex must be the full nodal value.
  YeeGrid<double> G({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  G.Ex(1, 2, 2) = 7.0;
  YeeInterpolator<double> Interp(G);
  auto F = Interp(Vector3<double>(1.5, 2.0, 2.0), 0, 0);
  EXPECT_NEAR(F.E.X, 7.0, 1e-12);
  // Half a cell off in x splits the weight evenly.
  auto F2 = Interp(Vector3<double>(2.0, 2.0, 2.0), 0, 0);
  EXPECT_NEAR(F2.E.X, 3.5, 1e-12);
}

TEST(YeeInterpolatorTest, TscVariantAlsoPartitionsUnity) {
  YeeGrid<double> G({6, 6, 6}, {0, 0, 0}, {1, 1, 1});
  G.Ey.fill(2.0);
  YeeInterpolator<double, TscShape> Interp(G);
  auto F = Interp(Vector3<double>(2.3, 1.7, 4.1), 0, 0);
  EXPECT_NEAR(F.E.Y, 2.0, 1e-12);
}

} // namespace
