#include <gtest/gtest.h>

#include "core/episode.h"

namespace sitm::core {
namespace {

PresenceInterval Pi(int cell, std::int64_t start, std::int64_t end,
                    AnnotationSet annotations = {}) {
  PresenceInterval p;
  p.cell = CellId(cell);
  p.interval = *qsr::TimeInterval::Make(Timestamp(start), Timestamp(end));
  p.annotations = std::move(annotations);
  return p;
}

// The paper's Fig. 5 walk: E(87) -> P(88) -> S(90) -> C(91), goal-
// annotated so the whole part carries "exit museum" while E->P->S also
// carries "buy souvenir".
SemanticTrajectory Fig5Visit() {
  const AnnotationSet exit_only{{AnnotationKind::kGoal, "exit museum"}};
  const AnnotationSet exit_and_buy{{AnnotationKind::kGoal, "exit museum"},
                                   {AnnotationKind::kGoal, "buy souvenir"}};
  return SemanticTrajectory(
      TrajectoryId(5), ObjectId(9),
      Trace({Pi(87, 0, 600, exit_and_buy), Pi(88, 620, 700, exit_and_buy),
             Pi(90, 710, 1500, exit_and_buy), Pi(91, 1510, 1600, exit_only)}),
      AnnotationSet{{AnnotationKind::kActivity, "visit"}});
}

TEST(EpisodeTest, IntervalInParent) {
  const SemanticTrajectory t = Fig5Visit();
  const Episode ep("x", 1, 3, AnnotationSet{{AnnotationKind::kGoal, "g"}});
  const auto iv = ep.IntervalIn(t);
  ASSERT_TRUE(iv.ok());
  EXPECT_EQ(iv->start(), Timestamp(620));
  EXPECT_EQ(iv->end(), Timestamp(1500));
  const Episode bad("x", 2, 9, {});
  EXPECT_FALSE(bad.IntervalIn(t).ok());
  const Episode empty("x", 2, 2, {});
  EXPECT_FALSE(empty.IntervalIn(t).ok());
}

TEST(EpisodePredicateTest, ForAllTuplesLiftsPointwiseConditions) {
  const SemanticTrajectory t = Fig5Visit();
  const EpisodePredicate all_long = ForAllTuples(StayAtLeast(
      Duration::Seconds(100)));
  EXPECT_FALSE(all_long(t, 0, 4));  // tuple 1 lasts only 80 s
  EXPECT_TRUE(all_long(t, 2, 3));
  EXPECT_FALSE(all_long(t, 2, 2));  // empty range is vacuously invalid
  EXPECT_FALSE(all_long(t, 3, 9));  // out of range
}

TEST(EpisodePredicateTest, InCellsAndHasAnnotation) {
  const SemanticTrajectory t = Fig5Visit();
  const TupleCondition in_shops = InCells({CellId(90), CellId(91)});
  EXPECT_FALSE(in_shops(t, 0));
  EXPECT_TRUE(in_shops(t, 2));
  const TupleCondition buying =
      HasAnnotation(AnnotationKind::kGoal, "buy souvenir");
  EXPECT_TRUE(buying(t, 0));
  EXPECT_FALSE(buying(t, 3));
}

TEST(TupleConditionTest, EveryLeafAndAndThroughBothEntryPoints) {
  const SemanticTrajectory t = Fig5Visit();
  // Fig. 5 durations 600, 80, 790, 90 s; cells 87, 88, 90, 91; "buy
  // souvenir" on tuples 0-2 only.
  const TupleCondition long_stay = StayAtLeast(Duration::Seconds(90));
  const TupleCondition shops = InCells({CellId(90), CellId(91)});
  const TupleCondition buying =
      HasAnnotation(AnnotationKind::kGoal, "buy souvenir");
  const TupleCondition everything;
  const struct {
    const char* name;
    TupleCondition condition;
    std::vector<bool> holds;
  } cases[] = {
      {"stay >= 90 s", long_stay, {true, false, true, true}},
      {"stay >= 90 s exactly at the bound", StayAtLeast(Duration::Seconds(90)),
       {true, false, true, true}},
      {"in shops", shops, {false, false, true, true}},
      {"buying", buying, {true, true, true, false}},
      {"absent kind", HasAnnotation(AnnotationKind::kBehavior, "buy souvenir"),
       {false, false, false, false}},
      {"empty conjunction", everything, {true, true, true, true}},
      {"long and in shops", And(long_stay, shops), {false, false, true, true}},
      {"long, in shops and buying", And(And(long_stay, shops), buying),
       {false, false, true, false}},
      {"and with the empty conjunction", And(everything, buying),
       {true, true, true, false}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(c.holds.size(), t.trace().size());
    for (std::size_t i = 0; i < t.trace().size(); ++i) {
      const PresenceInterval& tuple = t.trace().at(i);
      EXPECT_EQ(c.condition(t, i), c.holds[i]) << "tuple " << i;
      EXPECT_EQ(c.condition.Holds(tuple.duration(), tuple.cell,
                                  tuple.annotations),
                c.holds[i])
          << "tuple " << i;
    }
  }
  // Holds reads only the stay annotations it is given.
  const AnnotationSet buy{{AnnotationKind::kGoal, "buy souvenir"}};
  EXPECT_TRUE(buying.Holds(Duration::Zero(), CellId(1), buy));
  EXPECT_FALSE(buying.Holds(Duration::Zero(), CellId(1), AnnotationSet()));
  // A copy evaluates like its original.
  const TupleCondition copy = And(long_stay, shops);
  TupleCondition assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.Holds(Duration::Seconds(90), CellId(91), {}));
  EXPECT_FALSE(assigned.Holds(Duration::Seconds(89), CellId(91), {}));
  EXPECT_FALSE(assigned.Holds(Duration::Seconds(90), CellId(87), {}));
}

/// The ranges ForEachMaximalRun finds over rows given as columns.
std::vector<std::pair<std::size_t, std::size_t>> ColumnRuns(
    const TupleCondition& condition, const std::vector<Duration>& stays,
    const std::vector<CellId>& cells,
    const std::vector<AnnotationSet>& annotations) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  ForEachMaximalRun(
      stays.size(),
      [&](std::size_t r) {
        return condition.Holds(stays[r], cells[r], annotations[r]);
      },
      [&](std::size_t begin, std::size_t end) {
        runs.emplace_back(begin, end);
      });
  return runs;
}

TEST(ExtractMaximalEpisodesTest, TrajectoryAndColumnsGiveTheSameRuns) {
  const AnnotationSet tag{{AnnotationKind::kGoal, "g"}};
  const AnnotationSet none;
  const std::vector<SemanticTrajectory> traces = {
      Fig5Visit(),
      // A single tuple: a whole run cannot be shrunk, so nothing.
      SemanticTrajectory(TrajectoryId(1), ObjectId(1),
                         Trace({Pi(5, 0, 300, tag)}), tag),
      // Runs at both ends and a whole-trace run for the empty condition.
      SemanticTrajectory(
          TrajectoryId(2), ObjectId(1),
          Trace({Pi(5, 0, 300, tag), Pi(6, 310, 320), Pi(5, 330, 900, tag),
                 Pi(7, 910, 1500, tag)}),
          tag),
  };
  const std::vector<TupleCondition> conditions = {
      TupleCondition(),
      StayAtLeast(Duration::Seconds(100)),
      StayAtLeast(Duration::Hours(1)),
      InCells({CellId(5), CellId(7), CellId(90)}),
      HasAnnotation(AnnotationKind::kGoal, "g"),
      HasAnnotation(AnnotationKind::kGoal, "buy souvenir"),
      And(StayAtLeast(Duration::Seconds(100)),
          HasAnnotation(AnnotationKind::kGoal, "g")),
  };
  for (std::size_t k = 0; k < traces.size(); ++k) {
    const SemanticTrajectory& t = traces[k];
    std::vector<Duration> stays;
    std::vector<CellId> cells;
    std::vector<AnnotationSet> annotations;
    for (const PresenceInterval& p : t.trace().intervals()) {
      stays.push_back(p.duration());
      cells.push_back(p.cell);
      annotations.push_back(p.annotations);
    }
    for (std::size_t c = 0; c < conditions.size(); ++c) {
      SCOPED_TRACE("trace " + std::to_string(k) + " condition " +
                   std::to_string(c));
      std::vector<std::pair<std::size_t, std::size_t>> from_trajectory;
      for (const Episode& e :
           ExtractMaximalEpisodes(t, conditions[c], "e", none)) {
        from_trajectory.emplace_back(e.begin, e.end);
      }
      EXPECT_EQ(ColumnRuns(conditions[c], stays, cells, annotations),
                from_trajectory);
      for (const auto& [begin, end] : from_trajectory) {
        EXPECT_LT(begin, end);
        EXPECT_FALSE(begin == 0 && end == t.trace().size());  // proper
      }
    }
  }
}

TEST(ExtractMaximalEpisodesTest, RunRuleOnWholeSingleAndEmptyRanges) {
  using Runs = std::vector<std::pair<std::size_t, std::size_t>>;
  const auto runs = [](std::size_t n, const std::vector<bool>& holds) {
    Runs out;
    ForEachMaximalRun(
        n, [&](std::size_t r) { return static_cast<bool>(holds[r]); },
        [&](std::size_t begin, std::size_t end) {
          out.emplace_back(begin, end);
        });
    return out;
  };
  EXPECT_EQ(runs(3, {true, true, true}), (Runs{{0, 2}}));  // shrunk
  EXPECT_EQ(runs(1, {true}), Runs{});                      // no proper part
  EXPECT_EQ(runs(0, {}), Runs{});                          // empty
  EXPECT_EQ(runs(4, {false, true, true, true}), (Runs{{1, 4}}));
  EXPECT_EQ(runs(4, {true, true, true, false}), (Runs{{0, 3}}));
  EXPECT_EQ(runs(5, {true, false, true, true, false}),
            (Runs{{0, 1}, {2, 4}}));
  EXPECT_EQ(runs(2, {false, false}), Runs{});
}

TEST(ValidateEpisodeTest, ChecksAllThreeConditions) {
  const SemanticTrajectory t = Fig5Visit();
  const EpisodePredicate buying = ForAllTuples(
      HasAnnotation(AnnotationKind::kGoal, "buy souvenir"));
  // Valid: proper range, annotations differ from parent, predicate true.
  const Episode good("buy souvenir", 0, 3,
                     AnnotationSet{{AnnotationKind::kGoal, "buy souvenir"}});
  EXPECT_TRUE(ValidateEpisode(t, good, buying).ok());
  // (2) violated: same annotations as the parent trajectory.
  const Episode same_annotations(
      "dup", 0, 3, AnnotationSet{{AnnotationKind::kActivity, "visit"}});
  EXPECT_EQ(ValidateEpisode(t, same_annotations, buying).code(),
            StatusCode::kFailedPrecondition);
  // (3) violated: predicate fails on tuple 3.
  const Episode predicate_fails(
      "buy souvenir", 0, 4,
      AnnotationSet{{AnnotationKind::kGoal, "buy souvenir"}});
  EXPECT_FALSE(ValidateEpisode(t, predicate_fails, buying).ok());
}

TEST(ExtractMaximalEpisodesTest, FindsMaximalRuns) {
  const SemanticTrajectory t = Fig5Visit();
  // Stays >= 100 s: tuples 0, 2 qualify; tuple 1 (80 s) and 3 (90 s)
  // break the runs.
  const std::vector<Episode> stops = ExtractMaximalEpisodes(
      t, StayAtLeast(Duration::Seconds(100)), "stop",
      AnnotationSet{{AnnotationKind::kBehavior, "stopping"}});
  ASSERT_EQ(stops.size(), 2u);
  EXPECT_EQ(stops[0].begin, 0u);
  EXPECT_EQ(stops[0].end, 1u);
  EXPECT_EQ(stops[1].begin, 2u);
  EXPECT_EQ(stops[1].end, 3u);
  EXPECT_EQ(stops[0].label, "stop");
}

TEST(ExtractMaximalEpisodesTest, WholeTraceRunIsShrunk) {
  // If the condition holds everywhere the run must be trimmed to stay a
  // proper subtrajectory.
  const SemanticTrajectory t = Fig5Visit();
  const std::vector<Episode> all = ExtractMaximalEpisodes(
      t, TupleCondition(), "all", AnnotationSet{{AnnotationKind::kGoal, "g"}});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].begin, 0u);
  EXPECT_EQ(all[0].end, t.trace().size() - 1);
}

TEST(ExtractMaximalEpisodesTest, NoMatchesNoEpisodes) {
  const SemanticTrajectory t = Fig5Visit();
  EXPECT_TRUE(ExtractMaximalEpisodes(
                  t, StayAtLeast(Duration::Hours(10)), "never",
                  AnnotationSet{{AnnotationKind::kGoal, "g"}})
                  .empty());
}

TEST(SegmentationTest, Fig5OverlappingEpisodesAreAValidSegmentation) {
  // "we may tag the whole E->P->S->C part with the 'exit museum' goal
  // and its E->P->S subsequence with the 'buy souvenir' tag" — the two
  // episodes overlap in time and together cover the trajectory.
  const SemanticTrajectory t = Fig5Visit();
  std::vector<Episode> episodes;
  episodes.emplace_back("exit museum", 0, 4,
                        AnnotationSet{{AnnotationKind::kGoal, "exit museum"}});
  episodes.emplace_back(
      "buy souvenir", 0, 3,
      AnnotationSet{{AnnotationKind::kGoal, "buy souvenir"}});
  // The full-range episode is not proper; shrink the exit episode to
  // start at tuple 1 instead (still covers when combined with the buy
  // episode starting at tuple 0).
  episodes[0].begin = 1;
  const auto seg = EpisodicSegmentation::Make(&t, episodes);
  ASSERT_TRUE(seg.ok()) << seg.status();
  EXPECT_TRUE(seg->HasOverlaps());
  const auto pairs = seg->OverlappingPairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(SegmentationTest, RejectsNonCoveringEpisodeSets) {
  const SemanticTrajectory t = Fig5Visit();
  std::vector<Episode> episodes;
  episodes.emplace_back("start only", 0, 1,
                        AnnotationSet{{AnnotationKind::kGoal, "g"}});
  EXPECT_EQ(EpisodicSegmentation::Make(&t, episodes).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SegmentationTest, RejectsEpisodesEqualToParentAnnotations) {
  const SemanticTrajectory t = Fig5Visit();
  std::vector<Episode> episodes;
  episodes.emplace_back("a", 0, 3,
                        AnnotationSet{{AnnotationKind::kActivity, "visit"}});
  episodes.emplace_back("b", 2, 4,
                        AnnotationSet{{AnnotationKind::kGoal, "x"}});
  EXPECT_FALSE(EpisodicSegmentation::Make(&t, episodes).ok());
}

TEST(SegmentationTest, RejectsEmptyAndNull) {
  const SemanticTrajectory t = Fig5Visit();
  EXPECT_FALSE(EpisodicSegmentation::Make(&t, {}).ok());
  EXPECT_FALSE(EpisodicSegmentation::Make(nullptr, {}).ok());
}

TEST(SegmentationTest, NonOverlappingSegmentationHasNoPairs) {
  const SemanticTrajectory t = Fig5Visit();
  std::vector<Episode> episodes;
  episodes.emplace_back("first half", 0, 2,
                        AnnotationSet{{AnnotationKind::kGoal, "a"}});
  episodes.emplace_back("second half", 2, 4,
                        AnnotationSet{{AnnotationKind::kGoal, "b"}});
  const auto seg = EpisodicSegmentation::Make(&t, episodes);
  ASSERT_TRUE(seg.ok()) << seg.status();
  EXPECT_FALSE(seg->HasOverlaps());
}

}  // namespace
}  // namespace sitm::core
