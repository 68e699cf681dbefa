// The Table type: an immutable set of equal-length named int64 and category
// columns, plus the one relational operator the LODES pipeline needs (hash
// join).
#ifndef EEP_TABLE_TABLE_H_
#define EEP_TABLE_TABLE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/column.h"
#include "table/schema.h"

namespace eep::table {

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

  /// Inner hash join on int64 key columns. Every right key must be unique
  /// (the joins in this codebase are fact-to-dimension: Job -> Worker,
  /// Job -> Workplace). Output columns: all left columns, then all right
  /// columns except the right key.
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
