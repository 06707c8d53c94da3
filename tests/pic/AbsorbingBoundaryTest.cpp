//===-- tests/pic/AbsorbingBoundaryTest.cpp - Absorbing layer -------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "pic/AbsorbingBoundary.h"
#include "pic/FdtdSolver.h"

#include <gtest/gtest.h>

using namespace hichi;
using namespace hichi::pic;

namespace {

//===----------------------------------------------------------------------===//
// Absorbing layer
//===----------------------------------------------------------------------===//

TEST(AbsorbingLayerTest, InteriorIsUntouched) {
  AbsorbingLayer<double> Sponge({32, 8, 8}, /*LayerCells=*/3, 0.8);
  EXPECT_DOUBLE_EQ(Sponge.factorAt(16, 32), 1.0);
  EXPECT_DOUBLE_EQ(Sponge.factorAt(3, 32), 1.0) << "inner edge inclusive";
  EXPECT_LT(Sponge.factorAt(2, 32), 1.0);
  EXPECT_LT(Sponge.factorAt(0, 32), Sponge.factorAt(2, 32))
      << "damping ramps toward the face";
}

TEST(AbsorbingLayerTest, SymmetricAboutBoxCenter) {
  AbsorbingLayer<double> Sponge({16, 8, 8}, 4, 1.0);
  for (Index I = 0; I < 16; ++I)
    EXPECT_DOUBLE_EQ(Sponge.factorAt(I, 16), Sponge.factorAt(15 - I, 16));
}

TEST(AbsorbingLayerTest, DampsOutgoingWaveBelowReflectionBudget) {
  // Launch a rightward pulse, let it hit the sponge, and require the
  // recirculated (periodic wrap) energy to be under 2% of the initial.
  const Index NX = 64;
  YeeGrid<double> G({NX, 2, 2}, {0, 0, 0}, {1, 1, 1});
  // A localized Gaussian pulse centred mid-box, travelling +x.
  for (Index I = 0; I < NX; ++I) {
    double X = double(I) - 32.0;
    double Envelope = std::exp(-X * X / 18.0);
    for (Index J = 0; J < 2; ++J)
      for (Index K = 0; K < 2; ++K) {
        G.Ey(I, J, K) = Envelope * std::sin(0.8 * X);
        G.Bz(I, J, K) = Envelope * std::sin(0.8 * (X + 0.5));
      }
  }
  const double E0 = G.fieldEnergy();

  FdtdSolver<double> Solver(1.0);
  AbsorbingLayer<double> Sponge({NX, 2, 2}, 10, 0.35);
  const double Dt = 0.5 * Solver.courantLimit(G);
  // Long enough for the pulse to reach the right sponge and for any
  // reflection to come back into the interior.
  for (int S = 0; S < 260; ++S) {
    Solver.step(G, Dt);
    Sponge.apply(G);
  }
  EXPECT_LT(G.fieldEnergy() / E0, 0.02)
      << "sponge must swallow the outgoing pulse";
}

TEST(AbsorbingLayerTest, ParticleOpenBoundary) {
  YeeGrid<double> G({16, 16, 16}, {0, 0, 0}, {1, 1, 1});
  AbsorbingLayer<double> Sponge({16, 16, 16}, 2, 0.5);
  ParticleArrayAoS<double> P(10);
  for (int I = 0; I < 10; ++I) {
    ParticleT<double> Particle;
    // Half deep inside, half in the frame.
    Particle.Position = I < 5 ? Vector3<double>(8, 8, 8)
                              : Vector3<double>(0.5, 8, 8);
    P.pushBack(Particle);
  }
  EXPECT_FALSE(Sponge.inLayer(G, {8, 8, 8}));
  EXPECT_TRUE(Sponge.inLayer(G, {0.5, 8, 8}));
  EXPECT_TRUE(Sponge.inLayer(G, {8, 15.5, 8}));
  EXPECT_EQ(Sponge.removeAbsorbedParticles(P, G), 5);
  EXPECT_EQ(P.size(), 5);
}

} // namespace
