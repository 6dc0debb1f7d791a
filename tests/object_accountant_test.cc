// Property-style tests for dp/object_accountant.h: random spend/refuse
// sequences driven against a brute-force reference ledger. The invariants
// locked here are the ones the streaming guarantee rests on — no object's
// true cumulative spend ever exceeds the budget, unbounded retention
// matches the reference decision-for-decision, bounded retention only ever
// errs on the refusing side, and the maximum spend stays exact even while
// per-object ledgers are being evicted.

#include "dp/object_accountant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace frt {
namespace {

constexpr double kBudget = 3.0;
constexpr double kTol = 1e-9;

// Brute-force reference: the true cumulative spend of every object, charged
// only when the driver decides a window was admitted.
using ReferenceLedger = std::unordered_map<TrajId, double>;

// Would the exact (never-evicting) accountant admit this window?
bool ReferenceAdmits(const ReferenceLedger& reference,
                     const std::vector<TrajId>& ids, double epsilon,
                     double budget) {
  for (const TrajId id : ids) {
    auto it = reference.find(id);
    const double spent = it == reference.end() ? 0.0 : it->second;
    if (spent + epsilon > budget + 1e-12) return false;
  }
  return true;
}

// Distinct random ids from [0, id_space), random size in [1, max_ids].
std::vector<TrajId> RandomIds(Rng& rng, int id_space, int max_ids) {
  std::vector<TrajId> all(id_space);
  std::iota(all.begin(), all.end(), 0);
  std::shuffle(all.begin(), all.end(), rng);
  const size_t k = 1 + rng.UniformInt(static_cast<uint64_t>(max_ids));
  all.resize(std::min(all.size(), k));
  return all;
}

double RandomEpsilon(Rng& rng) {
  constexpr double kChoices[] = {0.25, 0.5, 1.0, 1.5};
  return kChoices[rng.UniformInt(4ull)];
}

TEST(ObjectAccountantTest, UnboundedRetentionMatchesReferenceExactly) {
  Rng rng(20260730);
  ObjectBudgetAccountant accountant(kBudget);
  ReferenceLedger reference;
  size_t admitted = 0, refused = 0;

  for (int round = 0; round < 600; ++round) {
    const std::vector<TrajId> ids = RandomIds(rng, 40, 12);
    const double epsilon = RandomEpsilon(rng);
    const bool want = ReferenceAdmits(reference, ids, epsilon, kBudget);
    const Status status = accountant.SpendWindow(ids, epsilon);
    ASSERT_EQ(status.ok(), want)
        << "round " << round << ": " << status.ToString();
    if (want) {
      ++admitted;
      for (const TrajId id : ids) reference[id] += epsilon;
    } else {
      ++refused;
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    }
    // Ledgers agree id-for-id, and no object ever exceeds the budget;
    // exactly the ids of admitted windows are tracked.
    double reference_max = 0.0;
    for (const auto& [id, spent] : reference) {
      EXPECT_NEAR(accountant.spent(id), spent, kTol) << "object " << id;
      EXPECT_LE(spent, kBudget + kTol);
      reference_max = std::max(reference_max, spent);
    }
    EXPECT_EQ(accountant.tracked_objects(), reference.size());
    EXPECT_NEAR(accountant.max_spent(), reference_max, kTol);
  }
  // The sequence actually exercised both outcomes. (Total admissions are
  // capacity-bounded: 40 ids x budget 3.0 of epsilon mass.)
  EXPECT_GT(admitted, 15u);
  EXPECT_GT(refused, 50u);
  double reference_max = 0.0;
  for (const auto& [id, spent] : reference) {
    reference_max = std::max(reference_max, spent);
  }
  EXPECT_NEAR(accountant.max_spent(), reference_max, kTol);
  EXPECT_NEAR(accountant.evicted_floor(), 0.0, kTol);  // nothing evicted
}

TEST(ObjectAccountantTest, BoundedRetentionIsConservativeAndMaxExact) {
  // A small tracked-id cap over a much larger id space forces constant
  // eviction. The accountant may refuse windows the exact reference would
  // admit (over-charging returning evictees with the floor), but it must
  // NEVER admit a window the reference refuses — and its exact maximum
  // spend must keep dominating the driver's own tallies.
  Rng rng(987654321);
  ObjectBudgetAccountant accountant(kBudget);
  accountant.set_max_tracked_objects(16);
  ReferenceLedger reference;  // true spends of admitted windows only
  size_t admitted = 0;
  size_t conservative_refusals = 0;

  for (int round = 0; round < 1500; ++round) {
    const std::vector<TrajId> ids = RandomIds(rng, 200, 10);
    const double epsilon = RandomEpsilon(rng);
    const bool reference_admits =
        ReferenceAdmits(reference, ids, epsilon, kBudget);
    const bool accountant_admits = accountant.SpendWindow(ids, epsilon).ok();
    // Conservative: admitted-by-accountant implies admitted-by-reference.
    if (accountant_admits) {
      EXPECT_TRUE(reference_admits) << "round " << round
                                    << ": unsound admission under eviction";
      ++admitted;
      for (const TrajId id : ids) reference[id] += epsilon;
    } else if (reference_admits) {
      ++conservative_refusals;  // allowed: utility loss, not a leak
    }
    // The believed spend dominates the true spend (floor only over-charges),
    // so no object's true spend can ever exceed the budget.
    for (const TrajId id : ids) {
      auto it = reference.find(id);
      const double true_spent = it == reference.end() ? 0.0 : it->second;
      EXPECT_GE(accountant.spent(id) + kTol, true_spent) << "object " << id;
      EXPECT_LE(true_spent, kBudget + kTol) << "object " << id;
    }
    // The maximum dominates every believed spend while ledgers come and
    // go, and the cap holds.
    for (const TrajId id : ids) {
      EXPECT_GE(accountant.max_spent() + kTol, accountant.spent(id));
    }
    EXPECT_LE(accountant.tracked_objects(), 16u);
  }
  // Eviction actually happened (more ids were charged than are tracked,
  // and the floor rose), and max_spent stayed within the budget and above
  // the true maximum (it is exact for the windows actually charged).
  EXPECT_GT(reference.size(), accountant.tracked_objects());
  EXPECT_GT(accountant.evicted_floor(), 0.0);
  // The tiny cap makes the floor ratchet quickly (every evicted generation
  // raises it), so admissions dry up early — that is the conservatism under
  // test, not a bug. Enough were admitted to exercise the charge path.
  EXPECT_GT(admitted, 10u);
  double reference_max = 0.0;
  for (const auto& [id, spent] : reference) {
    reference_max = std::max(reference_max, spent);
  }
  EXPECT_LE(accountant.max_spent(), kBudget + kTol);
  EXPECT_GE(accountant.max_spent() + kTol, reference_max);
  // Bounded retention only refused extra windows, never admitted extra.
  EXPECT_GT(conservative_refusals, 0u);
}

TEST(ObjectAccountantTest, FilterAdmissibleThenSpendAlwaysSucceeds) {
  // The streaming runner's eviction path: filter the exhausted objects
  // out, then spend for the admissible remainder — the spend must succeed
  // by construction, and the classification must match the reference.
  Rng rng(13572468);
  ObjectBudgetAccountant accountant(kBudget);
  ReferenceLedger reference;
  size_t windows_with_eviction = 0;

  for (int round = 0; round < 400; ++round) {
    const std::vector<TrajId> ids = RandomIds(rng, 30, 8);
    const double epsilon = RandomEpsilon(rng);
    std::vector<TrajId> admissible, exhausted;
    accountant.FilterAdmissible(ids, epsilon, &admissible, &exhausted);
    ASSERT_EQ(admissible.size() + exhausted.size(), ids.size());
    for (const TrajId id : admissible) {
      EXPECT_LE(reference[id] + epsilon, kBudget + 1e-12) << "object " << id;
    }
    for (const TrajId id : exhausted) {
      EXPECT_GT(reference[id] + epsilon, kBudget + 1e-12) << "object " << id;
    }
    if (!exhausted.empty()) ++windows_with_eviction;
    if (admissible.empty()) continue;
    ASSERT_TRUE(accountant.SpendWindow(admissible, epsilon).ok())
        << "round " << round;
    for (const TrajId id : admissible) reference[id] += epsilon;
  }
  EXPECT_GT(windows_with_eviction, 20u);
  for (const auto& [id, spent] : reference) {
    EXPECT_LE(spent, kBudget + kTol) << "object " << id;
  }
}

TEST(ObjectAccountantTest, NonEnforcingTracksButNeverRefuses) {
  ObjectBudgetAccountant accountant;  // track only
  EXPECT_FALSE(accountant.enforcing());
  const std::vector<TrajId> ids = {1, 2, 3};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(accountant.SpendWindow(ids, 1.0).ok());
  }
  EXPECT_NEAR(accountant.spent(1), 10.0, kTol);
  EXPECT_NEAR(accountant.max_spent(), 10.0, kTol);
  EXPECT_EQ(accountant.remaining(7),
            std::numeric_limits<double>::infinity());
  std::vector<TrajId> admissible, exhausted;
  accountant.FilterAdmissible(ids, 100.0, &admissible, &exhausted);
  EXPECT_EQ(admissible.size(), 3u);
  EXPECT_TRUE(exhausted.empty());
}

TEST(ObjectAccountantTest, RejectsNonPositiveSpendWithoutRecording) {
  ObjectBudgetAccountant accountant(kBudget);
  EXPECT_FALSE(accountant.SpendWindow({1, 2}, 0.0).ok());
  EXPECT_FALSE(accountant.SpendWindow({1, 2}, -1.0).ok());
  EXPECT_EQ(accountant.tracked_objects(), 0u);
  EXPECT_NEAR(accountant.spent(1), 0.0, kTol);
}

TEST(ObjectAccountantTest, TrackOnlyRejectsNonFiniteSpendWithoutRecording) {
  // A track-only ledger has no budget to catch an infinite spend, so the
  // spend check itself must: a service without a budget runs on this
  // ledger, and must refuse what PrivacyAccountant::Spend refuses.
  ObjectBudgetAccountant accountant;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(accountant.SpendWindow({1, 2}, inf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      accountant.SpendWindow({1, 2}, std::numeric_limits<double>::quiet_NaN())
          .ok());
  EXPECT_EQ(accountant.tracked_objects(), 0u);
  EXPECT_EQ(accountant.max_spent(), 0.0);
  EXPECT_EQ(accountant.spent(1), 0.0);
  EXPECT_TRUE(accountant.SpendWindow({1, 2}, 1.0).ok());
}

TEST(ObjectAccountantTest, RefusedWindowRecordsNothing) {
  // Transactionality: a refusal must not charge ANY id in the window, not
  // even the ones that could have afforded it.
  ObjectBudgetAccountant accountant(1.0);
  ASSERT_TRUE(accountant.SpendWindow({1}, 1.0).ok());  // id 1 exhausted
  EXPECT_FALSE(accountant.SpendWindow({1, 2, 3}, 1.0).ok());
  EXPECT_NEAR(accountant.spent(2), 0.0, kTol);
  EXPECT_NEAR(accountant.spent(3), 0.0, kTol);
  EXPECT_EQ(accountant.tracked_objects(), 1u);  // only id 1 was charged
  // A window of only fresh ids still fits afterwards.
  EXPECT_TRUE(accountant.SpendWindow({2, 3}, 1.0).ok());
}

TEST(ObjectAccountantTest, EvictedFloorChargesReturningEvictees) {
  ObjectBudgetAccountant accountant(kBudget);
  // Three spends of 1.0 on disjoint ids, then cap to 1 tracked id: two
  // ledgers fold into the floor.
  ASSERT_TRUE(accountant.SpendWindow({1}, 1.0).ok());
  ASSERT_TRUE(accountant.SpendWindow({2}, 1.0).ok());
  ASSERT_TRUE(accountant.SpendWindow({3}, 2.0).ok());
  accountant.set_max_tracked_objects(1);
  EXPECT_EQ(accountant.tracked_objects(), 1u);  // two folded into the floor
  // The floor is the max evicted spend; every unknown id now reports it.
  EXPECT_NEAR(accountant.evicted_floor(), 1.0, kTol);
  EXPECT_NEAR(accountant.spent(1), 1.0, kTol);   // evicted -> floor
  EXPECT_NEAR(accountant.spent(99), 1.0, kTol);  // never seen -> floor
  // A returning evictee is charged on top of the floor.
  ASSERT_TRUE(accountant.SpendWindow({2}, 1.0).ok());
  EXPECT_NEAR(accountant.spent(2), 2.0, kTol);
  // max_spent stays exact through all of it.
  EXPECT_NEAR(accountant.max_spent(), 2.0, kTol);
}

}  // namespace
}  // namespace frt
