// The Table type: an immutable set of equal-length named int64 and category
// columns, plus the one relational operator the LODES pipeline needs (hash
// join) and the key index behind it.
#ifndef EEP_TABLE_TABLE_H_
#define EEP_TABLE_TABLE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/column.h"
#include "table/schema.h"

namespace eep::table {

/// \brief The row of each key in an int64 key column whose keys are
/// distinct.
///
/// Dense keys, whose span max - min + 1 is at most 2*max(rows, 2^16), are
/// indexed by a direct-address uint32 array over [min, max]: at most
/// 8*max(rows, 2^16) bytes, which from 2^16 rows up is no more than the
/// int64 key column itself. Any other key set uses a hash map. The choice
/// reads only the keys.
class KeyIndex {
 public:
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

  /// Indexes `keys` (row i holds keys[i]). The first row whose key an
  /// earlier row already holds is refused with the Status
  /// `on_repeat(key)` returns; kNoRow rows or more are InvalidArgument.
  static Result<KeyIndex> Build(const std::vector<int64_t>& keys,
                                Status (*on_repeat)(int64_t key));

  /// The row holding `key`, or kNoRow.
  uint32_t Find(int64_t key) const;

  /// True when the direct-address array indexes the keys.
  bool dense() const { return dense_; }

 private:
  KeyIndex() = default;

  bool dense_ = true;
  int64_t min_ = 0;                             // dense: key of slot 0
  std::vector<uint32_t> slots_;                 // dense: row or kNoRow
  std::unordered_map<int64_t, uint32_t> rows_;  // otherwise
};

/// \brief Immutable relational table (schema + columns of equal length).
class Table {
 public:
  /// Fails unless every column length matches and column count == field
  /// count, and column types match the schema.
  static Result<Table> Create(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  /// Column by field name, or NotFound.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Inner join on int64 key columns through a KeyIndex of the right key.
  /// Every right key must be unique (the joins in this codebase are
  /// fact-to-dimension: Job -> Worker, Job -> Workplace). Output rows keep
  /// the left row order; output columns are all left columns, then all
  /// right columns except the right key. When every left row matches, the
  /// output shares the left columns' values, and when the matches gather
  /// right rows 0..n-1 in order, it shares the right columns' values;
  /// otherwise it copies them.
  static Result<Table> HashJoin(const Table& left,
                                const std::string& left_key,
                                const Table& right,
                                const std::string& right_key);

 private:
  Table(Schema schema, std::vector<Column> columns, size_t num_rows)
      : schema_(std::move(schema)),
        columns_(std::move(columns)),
        num_rows_(num_rows) {}

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_;
};

}  // namespace eep::table

#endif  // EEP_TABLE_TABLE_H_
