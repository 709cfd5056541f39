#include <gtest/gtest.h>

#include "core/annotation.h"
#include "core/presence.h"

namespace sitm::core {
namespace {

TEST(AnnotationTest, KindNames) {
  EXPECT_EQ(AnnotationKindName(AnnotationKind::kActivity), "activity");
  EXPECT_EQ(AnnotationKindName(AnnotationKind::kBehavior), "behavior");
  EXPECT_EQ(AnnotationKindName(AnnotationKind::kGoal), "goal");
  EXPECT_EQ(AnnotationKindName(AnnotationKind::kOther), "other");
}

TEST(AnnotationTest, AnnotationEqualityAndOrdering) {
  const SemanticAnnotation a(AnnotationKind::kGoal, "visit");
  const SemanticAnnotation b(AnnotationKind::kGoal, "visit");
  const SemanticAnnotation c(AnnotationKind::kGoal, "buy");
  const SemanticAnnotation d(AnnotationKind::kActivity, "visit");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_LT(c, a);  // same kind, "buy" < "visit"
  EXPECT_LT(d, a);  // activity < goal in kind order
}

TEST(AnnotationSetTest, AddCollapsesDuplicates) {
  AnnotationSet set;
  EXPECT_TRUE(set.Add(AnnotationKind::kGoal, "visit"));
  EXPECT_FALSE(set.Add(AnnotationKind::kGoal, "visit"));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Add(AnnotationKind::kGoal, "buy"));
  EXPECT_EQ(set.size(), 2u);
}

TEST(AnnotationSetTest, InitializerListConstruction) {
  const AnnotationSet set{{AnnotationKind::kGoal, "visit"},
                          {AnnotationKind::kGoal, "visit"},
                          {AnnotationKind::kBehavior, "rushing"}};
  EXPECT_EQ(set.size(), 2u);
}

TEST(AnnotationSetTest, OrderInsensitiveEquality) {
  // Set semantics: insertion order must not matter (the A' != A test of
  // Def. 3.4 depends on this).
  AnnotationSet a;
  a.Add(AnnotationKind::kGoal, "visit");
  a.Add(AnnotationKind::kGoal, "buy");
  AnnotationSet b;
  b.Add(AnnotationKind::kGoal, "buy");
  b.Add(AnnotationKind::kGoal, "visit");
  EXPECT_EQ(a, b);
  b.Add(AnnotationKind::kBehavior, "browsing");
  EXPECT_NE(a, b);
}

TEST(AnnotationSetTest, RemoveAndContains) {
  AnnotationSet set{{AnnotationKind::kGoal, "visit"}};
  EXPECT_TRUE(set.Contains(AnnotationKind::kGoal, "visit"));
  EXPECT_TRUE(set.Remove({AnnotationKind::kGoal, "visit"}));
  EXPECT_FALSE(set.Remove({AnnotationKind::kGoal, "visit"}));
  EXPECT_TRUE(set.empty());
}

TEST(AnnotationSetTest, ContainsComparesLongValuesAndKindsInPlace) {
  // Values past small-string storage, neighbours that differ only in
  // kind or in a value prefix, and a kind the set never holds.
  const std::string long_value = "visit the Winged Victory of Samothrace";
  ASSERT_GT(long_value.size(), 15u);
  const AnnotationSet set{{AnnotationKind::kActivity, long_value},
                          {AnnotationKind::kGoal, long_value + "!"},
                          {AnnotationKind::kGoal, "buy"},
                          {AnnotationKind::kOther, ""}};
  EXPECT_TRUE(set.Contains(AnnotationKind::kActivity, long_value));
  EXPECT_TRUE(set.Contains(AnnotationKind::kGoal, long_value + "!"));
  EXPECT_TRUE(set.Contains({AnnotationKind::kGoal, "buy"}));
  EXPECT_TRUE(set.Contains(AnnotationKind::kOther, ""));
  EXPECT_FALSE(set.Contains(AnnotationKind::kGoal, long_value));
  EXPECT_FALSE(set.Contains(AnnotationKind::kActivity, long_value + "!"));
  EXPECT_FALSE(set.Contains(AnnotationKind::kActivity,
                            std::string_view(long_value).substr(0, 20)));
  EXPECT_FALSE(set.Contains(AnnotationKind::kBehavior, long_value));
  EXPECT_FALSE(set.Contains(AnnotationKind::kBehavior, ""));
  EXPECT_FALSE(AnnotationSet().Contains(AnnotationKind::kGoal, "buy"));
}

TEST(AnnotationSetTest, ValuesOfFiltersByKind) {
  const AnnotationSet set{{AnnotationKind::kGoal, "visit"},
                          {AnnotationKind::kGoal, "buy"},
                          {AnnotationKind::kActivity, "walking"}};
  EXPECT_EQ(set.ValuesOf(AnnotationKind::kGoal),
            (std::vector<std::string>{"buy", "visit"}));  // sorted
  EXPECT_TRUE(set.ValuesOf(AnnotationKind::kBehavior).empty());
  EXPECT_TRUE(set.HasKind(AnnotationKind::kActivity));
  EXPECT_FALSE(set.HasKind(AnnotationKind::kBehavior));
}

TEST(AnnotationSetTest, UnionMergesWithoutDuplicates) {
  const AnnotationSet a{{AnnotationKind::kGoal, "visit"}};
  const AnnotationSet b{{AnnotationKind::kGoal, "visit"},
                        {AnnotationKind::kGoal, "buy"}};
  const AnnotationSet u = a.Union(b);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(u, b);
}

TEST(AnnotationSetTest, ToStringMatchesPaperNotation) {
  // The paper writes {goals:["visit","buy"]}.
  const AnnotationSet set{{AnnotationKind::kGoal, "visit"},
                          {AnnotationKind::kGoal, "buy"}};
  EXPECT_EQ(set.ToString(), "{goals:[buy,visit]}");
  EXPECT_EQ(AnnotationSet{}.ToString(), "{}");
}

TEST(PresenceIntervalTest, AccessorsAndToString) {
  PresenceInterval p(
      BoundaryId(12), CellId(3),
      *qsr::TimeInterval::Make(*Timestamp::FromCivil(2017, 2, 1, 11, 32, 31),
                               *Timestamp::FromCivil(2017, 2, 1, 11, 40, 0)),
      AnnotationSet{{AnnotationKind::kGoal, "visit"}});
  EXPECT_EQ(p.duration().seconds(), 449);
  EXPECT_EQ(p.ToString(),
            "(e#12, cell#3, 11:32:31, 11:40:00, {goals:[visit]})");
  PresenceInterval unknown_transition;
  unknown_transition.cell = CellId(1);
  unknown_transition.inferred = true;
  EXPECT_EQ(unknown_transition.ToString(),
            "(_, cell#1, 00:00:00, 00:00:00, {}, inferred)");
}

TEST(PresenceIntervalTest, EqualityIsFieldWise) {
  PresenceInterval a(BoundaryId(1), CellId(2),
                     *qsr::TimeInterval::Make(Timestamp(0), Timestamp(5)));
  PresenceInterval b = a;
  EXPECT_EQ(a, b);
  b.inferred = true;
  EXPECT_NE(a, b);
  b = a;
  b.annotations.Add(AnnotationKind::kGoal, "x");
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace sitm::core
