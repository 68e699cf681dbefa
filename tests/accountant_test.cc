#include "privacy/accountant.h"

#include <gtest/gtest.h>

namespace eep::privacy {
namespace {

TEST(AccountantTest, CreateValidation) {
  EXPECT_TRUE(PrivacyAccountant::Create(0.1, 4.0, 0.0,
                                        AdversaryModel::kInformed)
                  .ok());
  EXPECT_FALSE(PrivacyAccountant::Create(-0.1, 4.0, 0.0,
                                         AdversaryModel::kInformed)
                   .ok());
  EXPECT_FALSE(
      PrivacyAccountant::Create(0.1, 0.0, 0.0, AdversaryModel::kInformed)
          .ok());
  EXPECT_FALSE(
      PrivacyAccountant::Create(0.1, 1.0, 1.0, AdversaryModel::kInformed)
          .ok());
}

TEST(AccountantTest, SequentialCompositionAccumulates) {
  auto acct = PrivacyAccountant::Create(0.1, 4.0, 0.1,
                                        AdversaryModel::kInformed)
                  .value();
  ASSERT_TRUE(acct.ChargeSequential("q1", 1.0, 0.02).ok());
  ASSERT_TRUE(acct.ChargeSequential("q2", 2.0, 0.03).ok());
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 3.0);
  EXPECT_DOUBLE_EQ(acct.spent_delta(), 0.05);
  EXPECT_DOUBLE_EQ(acct.remaining_epsilon(), 1.0);
  EXPECT_EQ(acct.ledger().size(), 2u);
  EXPECT_EQ(acct.ledger()[1].description, "q2");
}

TEST(AccountantTest, RefusesOverBudgetAndKeepsLedgerClean) {
  auto acct = PrivacyAccountant::Create(0.1, 2.0, 0.0,
                                        AdversaryModel::kInformed)
                  .value();
  ASSERT_TRUE(acct.ChargeSequential("q1", 1.5).ok());
  EXPECT_EQ(acct.ChargeSequential("q2", 1.0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 1.5);  // failed charge not recorded
  EXPECT_EQ(acct.ledger().size(), 1u);
  // A charge that exactly exhausts the budget is allowed.
  EXPECT_TRUE(acct.ChargeSequential("q3", 0.5).ok());
}

TEST(AccountantTest, DeltaBudgetEnforced) {
  auto acct = PrivacyAccountant::Create(0.1, 10.0, 0.05,
                                        AdversaryModel::kInformed)
                  .value();
  const Status refused = acct.ChargeSequential("q", 1.0, 0.06);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(refused.message(),
            "delta budget exhausted: the charge costs 0.06 with 0.05 "
            "remaining");
  EXPECT_TRUE(acct.ChargeSequential("q", 1.0, 0.05).ok());
}

TEST(AccountantTest, WeakModelDeltaRefusalNamesCostAndRemaining) {
  // A full_demographics marginal has 768 worker cells, so the weak model
  // charges 768 x delta against the whole delta budget.
  auto acct =
      PrivacyAccountant::Create(0.1, 100000.0, 0.9, AdversaryModel::kWeak)
          .value();
  const Status refused =
      acct.ChargeMarginalWorkload({{"full_demographics", 1.0, 768, 0.05}});
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(refused.message(),
            "delta budget exhausted: the workload costs 38.4 with 0.9 "
            "remaining; nothing was charged");
  EXPECT_TRUE(acct.ledger().empty());
  EXPECT_TRUE(
      acct.ChargeMarginalWorkload({{"full_demographics", 1.0, 768, 0.001}})
          .ok());
  EXPECT_DOUBLE_EQ(acct.spent_delta(), 0.768);
}

TEST(AccountantTest, StrongModelMarginalParallelComposes) {
  auto acct = PrivacyAccountant::Create(0.1, 2.0, 0.0,
                                        AdversaryModel::kInformed)
                  .value();
  // Thms 7.4 + 7.5: a full marginal costs one epsilon under strong privacy
  // even with worker attributes.
  ASSERT_TRUE(
      acct.ChargeMarginalWorkload({{"m", 1.0, /*worker_domain_size=*/8}})
          .ok());
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 1.0);
}

TEST(AccountantTest, WeakModelWorkerMarginalSurcharge) {
  auto acct =
      PrivacyAccountant::Create(0.1, 10.0, 0.0, AdversaryModel::kWeak)
          .value();
  // Weak privacy: the 8 worker cells of one establishment compose
  // sequentially (Thm 7.5 fails) -> 8 x epsilon.
  ASSERT_TRUE(acct.ChargeMarginalWorkload({{"m", 1.0, 8}}).ok());
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 8.0);
  // Establishment-only marginal (d = 1) still parallel-composes.
  ASSERT_TRUE(acct.ChargeMarginalWorkload({{"m2", 1.0, 1}}).ok());
  EXPECT_DOUBLE_EQ(acct.spent_epsilon(), 9.0);
}

TEST(AccountantTest, WeakSurchargeCanExhaustBudget) {
  auto acct =
      PrivacyAccountant::Create(0.1, 4.0, 0.0, AdversaryModel::kWeak)
          .value();
  EXPECT_EQ(acct.ChargeMarginalWorkload({{"m", 1.0, 8}}).code(),
            StatusCode::kResourceExhausted);
}

TEST(AccountantTest, InvalidCharges) {
  auto acct = PrivacyAccountant::Create(0.1, 4.0, 0.0,
                                        AdversaryModel::kInformed)
                  .value();
  EXPECT_FALSE(acct.ChargeSequential("bad", 0.0).ok());
  EXPECT_FALSE(acct.ChargeSequential("bad", -1.0).ok());
  EXPECT_FALSE(acct.ChargeMarginalWorkload({{"bad", 1.0, 0}}).ok());
}

}  // namespace
}  // namespace eep::privacy
