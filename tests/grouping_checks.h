// Checks shared by the group-by, roll-up and workload tests: two groupings
// agree cell for cell and contribution for contribution, and a grouping's
// cells tile its one contribution array.
#ifndef EEP_TESTS_GROUPING_CHECKS_H_
#define EEP_TESTS_GROUPING_CHECKS_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "table/group_by.h"

namespace eep::table {

/// Fails unless `actual` holds `expected`'s cells in order: keys, counts
/// and each cell's contributions.
inline void ExpectSameCells(const GroupedCounts& expected,
                            const GroupedCounts& actual,
                            const std::string& context) {
  ASSERT_EQ(expected.cells.size(), actual.cells.size()) << context;
  for (size_t i = 0; i < expected.cells.size(); ++i) {
    const GroupedCell& a = expected.cells[i];
    const GroupedCell& b = actual.cells[i];
    ASSERT_EQ(a.key, b.key) << context << " cell " << i;
    ASSERT_EQ(a.count, b.count) << context << " cell " << i;
    const ContributionSpan ca = expected.ContributionsOf(a);
    const ContributionSpan cb = actual.ContributionsOf(b);
    ASSERT_EQ(ca.size(), cb.size()) << context << " cell " << i;
    for (size_t c = 0; c < ca.size(); ++c) {
      ASSERT_EQ(ca[c].estab_id, cb[c].estab_id) << context << " cell " << i;
      ASSERT_EQ(ca[c].count, cb[c].count) << context << " cell " << i;
    }
  }
}

/// Fails unless the cells' ranges tile the contribution array in cell
/// order with no gap or overlap, each range non-empty, establishment-sorted
/// and distinct, and summing to its cell's count; and unless a copy of the
/// grouping answers the same from its own array.
inline void ExpectTiledLayout(const GroupedCounts& grouped,
                              const std::string& context) {
  size_t next = 0;
  for (size_t i = 0; i < grouped.cells.size(); ++i) {
    const GroupedCell& cell = grouped.cells[i];
    ASSERT_EQ(cell.begin, next) << context << " cell " << i;
    ASSERT_LT(cell.begin, cell.end) << context << " cell " << i;
    ASSERT_LE(cell.end, grouped.contributions.size()) << context;
    int64_t sum = 0;
    for (size_t c = cell.begin; c < cell.end; ++c) {
      if (c > cell.begin) {
        ASSERT_LT(grouped.contributions[c - 1].estab_id,
                  grouped.contributions[c].estab_id)
            << context << " cell " << i;
      }
      sum += grouped.contributions[c].count;
    }
    ASSERT_EQ(sum, cell.count) << context << " cell " << i;
    next = cell.end;
  }
  ASSERT_EQ(next, grouped.contributions.size()) << context;

  const GroupedCounts copy = grouped;
  for (const GroupedCell& cell : copy.cells) {
    ASSERT_EQ(copy.ContributionsOf(cell).data(),
              copy.contributions.data() + cell.begin)
        << context;
  }
  ExpectSameCells(grouped, copy, context + " copy");
}

}  // namespace eep::table

#endif  // EEP_TESTS_GROUPING_CHECKS_H_
