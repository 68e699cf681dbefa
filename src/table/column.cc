#include "table/column.h"

#include <algorithm>
#include <limits>

namespace eep::table {
namespace {

template <typename T>
std::shared_ptr<const std::vector<T>> Share(std::vector<T> values) {
  return std::make_shared<const std::vector<T>>(std::move(values));
}

}  // namespace

template <typename Code>
Column Column::Narrowest(std::vector<Code> codes) {
  const Code largest =
      codes.empty() ? 0 : *std::max_element(codes.begin(), codes.end());
  if constexpr (sizeof(Code) > 1) {
    if (largest <= std::numeric_limits<uint8_t>::max()) {
      return Column(
          Storage(Share(std::vector<uint8_t>(codes.begin(), codes.end()))));
    }
  }
  if constexpr (sizeof(Code) > 2) {
    if (largest <= std::numeric_limits<uint16_t>::max()) {
      return Column(
          Storage(Share(std::vector<uint16_t>(codes.begin(), codes.end()))));
    }
  }
  return Column(Storage(Share(std::move(codes))));
}

Column Column::OfInt64(std::vector<int64_t> values) {
  return Column(Storage(Share(std::move(values))));
}
Column Column::OfCategory(std::vector<uint8_t> codes) {
  return Narrowest(std::move(codes));
}
Column Column::OfCategory(std::vector<uint16_t> codes) {
  return Narrowest(std::move(codes));
}
Column Column::OfCategory(std::vector<uint32_t> codes) {
  return Narrowest(std::move(codes));
}
Column Column::OfCategory(std::initializer_list<uint32_t> codes) {
  return Narrowest(std::vector<uint32_t>(codes));
}

DataType Column::type() const {
  return values_.index() == 0 ? DataType::kInt64 : DataType::kCategory;
}

size_t Column::size() const {
  return std::visit([](const auto& v) { return v->size(); }, values_);
}

uint32_t Column::code(size_t row) const {
  return VisitCodes([row](const auto& codes) -> uint32_t {
    return codes[row];
  });
}

size_t Column::code_width() const {
  return VisitCodes([](const auto& codes) { return sizeof(codes[0]); });
}

Result<const std::vector<int64_t>*> Column::AsInt64() const {
  if (auto* v = std::get_if<Int64Values>(&values_)) return v->get();
  return Status::InvalidArgument("column is not int64");
}

Column Column::FilterCopy(const std::vector<bool>& mask) const {
  return std::visit(
      [&mask](const auto& shared) {
        const auto& values = *shared;
        std::decay_t<decltype(values)> out;
        for (size_t i = 0; i < values.size(); ++i) {
          if (mask[i]) out.push_back(values[i]);
        }
        return Column(Storage(Share(std::move(out))));
      },
      values_);
}

Column Column::TakeCopy(const std::vector<uint32_t>& indices) const {
  return std::visit(
      [&indices](const auto& shared) {
        const auto& values = *shared;
        std::decay_t<decltype(values)> out;
        out.reserve(indices.size());
        for (uint32_t idx : indices) out.push_back(values[idx]);
        return Column(Storage(Share(std::move(out))));
      },
      values_);
}

}  // namespace eep::table
