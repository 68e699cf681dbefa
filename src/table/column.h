// Column storage for the in-memory columnar engine.
#ifndef EEP_TABLE_COLUMN_H_
#define EEP_TABLE_COLUMN_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "table/schema.h"

namespace eep::table {

/// \brief One column of a Table: contiguous int64 values or category codes.
///
/// Category codes are stored 1, 2 or 4 bytes wide: OfCategory picks the
/// narrowest of uint8_t, uint16_t and uint32_t that holds the largest
/// code, whatever the width it is handed, and FilterCopy and TakeCopy
/// keep their source's width. Readers take the codes at their stored
/// width through VisitCodes.
///
/// A Column's values never change after construction, so copies of a
/// Column (and of a Table) share one immutable vector instead of copying
/// it; the values live as long as any copy does. Type mismatches between
/// a Column and the accessor used on it are programming errors and abort
/// in debug builds; the checked AsInt64 returns Status instead.
class Column {
 public:
  static Column OfInt64(std::vector<int64_t> values);
  /// Codes of any of the three widths; a producer whose codes fit a byte
  /// hands over uint8_t codes and never holds a wider copy.
  static Column OfCategory(std::vector<uint8_t> codes);
  static Column OfCategory(std::vector<uint16_t> codes);
  static Column OfCategory(std::vector<uint32_t> codes);
  /// A braced list of codes, e.g. OfCategory({0, 2, 1}).
  static Column OfCategory(std::initializer_list<uint32_t> codes);

  DataType type() const;
  size_t size() const;

  /// Unchecked typed view (UB on type mismatch; use in hot loops after
  /// validating the schema once).
  const std::vector<int64_t>& int64s() const {
    return *std::get<Int64Values>(values_);
  }

  /// Calls fn with the category codes at their stored width — a
  /// const std::vector<uint8_t>&, std::vector<uint16_t>& or
  /// std::vector<uint32_t>& — and returns what fn returns, which must be
  /// one type for all three. Hot loops dispatch here once per column or
  /// chunk of rows, never per row. Unchecked, like int64s().
  template <typename Fn>
  decltype(auto) VisitCodes(Fn&& fn) const {
    if (const auto* codes = std::get_if<Codes8>(&values_)) {
      return fn(**codes);
    }
    if (const auto* codes = std::get_if<Codes16>(&values_)) {
      return fn(**codes);
    }
    return fn(*std::get<Codes32>(values_));
  }

  /// The category code of one row, for cold paths.
  uint32_t code(size_t row) const;

  /// Bytes per stored category code: 1, 2 or 4.
  size_t code_width() const;

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
  using Codes8 = std::shared_ptr<const std::vector<uint8_t>>;
  using Codes16 = std::shared_ptr<const std::vector<uint16_t>>;
  using Codes32 = std::shared_ptr<const std::vector<uint32_t>>;
  using Storage = std::variant<Int64Values, Codes8, Codes16, Codes32>;
  explicit Column(Storage values) : values_(std::move(values)) {}

  /// `codes` at the narrowest width that holds its largest code.
  template <typename Code>
  static Column Narrowest(std::vector<Code> codes);

  Storage values_;
};

}  // namespace eep::table

#endif  // EEP_TABLE_COLUMN_H_
