// Column storage for the in-memory columnar engine.
#ifndef EEP_TABLE_COLUMN_H_
#define EEP_TABLE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "table/schema.h"

namespace eep::table {

/// \brief One column of a Table: contiguous int64 values or category codes.
///
/// A Column's values never change after construction, so copies of a
/// Column (and of a Table) share one immutable vector instead of copying
/// it; the values live as long as any copy does. Type mismatches between
/// a Column and the accessor used on it are programming errors and abort
/// in debug builds; the checked AsInt64 returns Status instead.
class Column {
 public:
  static Column OfInt64(std::vector<int64_t> values);
  static Column OfCategory(std::vector<uint32_t> codes);

  DataType type() const;
  size_t size() const;

  /// Unchecked typed views (UB on type mismatch; use in hot loops after
  /// validating the schema once).
  const std::vector<int64_t>& int64s() const {
    return *std::get<Int64Values>(values_);
  }
  const std::vector<uint32_t>& codes() const {
    return *std::get<CategoryCodes>(values_);
  }

  /// Checked int64 view (id columns: join keys, establishment ids).
  Result<const std::vector<int64_t>*> AsInt64() const;

  /// A copy of this column keeping only rows where mask[i] is true.
  /// mask.size() must equal size().
  Column FilterCopy(const std::vector<bool>& mask) const;

  /// A copy of this column with rows gathered by `indices` (values may
  /// repeat, enabling join output materialization).
  Column TakeCopy(const std::vector<uint32_t>& indices) const;

 private:
  using Int64Values = std::shared_ptr<const std::vector<int64_t>>;
  using CategoryCodes = std::shared_ptr<const std::vector<uint32_t>>;
  using Storage = std::variant<Int64Values, CategoryCodes>;
  explicit Column(Storage values) : values_(std::move(values)) {}
  Storage values_;
};

}  // namespace eep::table

#endif  // EEP_TABLE_COLUMN_H_
