#include "lodes/io.h"

#include <cerrno>
#include <cstdlib>

#include "common/csv.h"
#include "table/table.h"

namespace eep::lodes {
namespace {

Result<int64_t> ParseInt(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const int64_t v = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty()) {
    return Status::InvalidArgument("not an integer: '" + text + "'");
  }
  // strtoll saturates out-of-range text at the int64 limits.
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer outside int64: '" + text + "'");
  }
  return v;
}

// Writes one table, expanding categorical codes to dictionary strings.
Status WriteTableCsv(const table::Table& t, const std::string& path) {
  std::vector<std::string> header;
  for (const auto& field : t.schema().fields()) header.push_back(field.name);
  std::vector<std::vector<std::string>> rows(t.num_rows());
  for (auto& row : rows) row.reserve(header.size());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const auto& field = t.schema().field(c);
    const auto& col = t.column(c);
    switch (field.type) {
      case table::DataType::kInt64:
        for (size_t r = 0; r < t.num_rows(); ++r) {
          rows[r].push_back(std::to_string(col.int64s()[r]));
        }
        break;
      case table::DataType::kCategory:
        col.VisitCodes([&](const auto& codes) {
          for (size_t r = 0; r < t.num_rows(); ++r) {
            rows[r].push_back(field.dictionary->value(codes[r]));
          }
        });
        break;
    }
  }
  return WriteCsvFile(path, header, rows);
}

// Reads a table against an expected schema, mapping strings to codes.
Result<table::Table> ReadTableCsv(const table::Schema& schema,
                                  const std::string& path) {
  EEP_ASSIGN_OR_RETURN(CsvDocument doc, ReadCsvFile(path));
  if (doc.header.size() != schema.num_fields()) {
    return Status::InvalidArgument(path + ": wrong column count");
  }
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (doc.header[c] != schema.field(c).name) {
      return Status::InvalidArgument(path + ": expected column '" +
                                     schema.field(c).name + "', found '" +
                                     doc.header[c] + "'");
    }
  }
  std::vector<std::vector<int64_t>> int_cols(schema.num_fields());
  std::vector<std::vector<uint32_t>> code_cols(schema.num_fields());
  for (const auto& row : doc.rows) {
    if (row.size() != schema.num_fields()) {
      return Status::InvalidArgument(path + ": ragged row");
    }
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      const auto& field = schema.field(c);
      if (field.type == table::DataType::kInt64) {
        EEP_ASSIGN_OR_RETURN(int64_t v, ParseInt(row[c]));
        int_cols[c].push_back(v);
      } else {
        EEP_ASSIGN_OR_RETURN(uint32_t code, field.dictionary->CodeOf(row[c]));
        code_cols[c].push_back(code);
      }
    }
  }
  std::vector<table::Column> columns;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (schema.field(c).type == table::DataType::kInt64) {
      columns.push_back(table::Column::OfInt64(std::move(int_cols[c])));
    } else {
      columns.push_back(table::Column::OfCategory(std::move(code_cols[c])));
    }
  }
  return table::Table::Create(schema, std::move(columns));
}

}  // namespace

Status SaveDataset(const LodesDataset& data, const std::string& dir) {
  // places.csv
  {
    std::vector<std::vector<std::string>> rows;
    rows.reserve(data.places().size());
    for (const auto& p : data.places()) {
      rows.push_back({p.name, std::to_string(p.population)});
    }
    EEP_RETURN_NOT_OK(
        WriteCsvFile(dir + "/places.csv", {"name", "population"}, rows));
  }
  EEP_RETURN_NOT_OK(
      WriteTableCsv(data.workplaces(), dir + "/workplaces.csv"));
  EEP_RETURN_NOT_OK(WriteTableCsv(data.workers(), dir + "/workers.csv"));
  EEP_RETURN_NOT_OK(WriteTableCsv(data.jobs(), dir + "/jobs.csv"));
  return Status::OK();
}

Result<LodesDataset> LoadDataset(const std::string& dir) {
  EEP_ASSIGN_OR_RETURN(CsvDocument places_doc,
                       ReadCsvFile(dir + "/places.csv"));
  if (places_doc.header !=
      std::vector<std::string>({"name", "population"})) {
    return Status::InvalidArgument("places.csv: unexpected header");
  }
  std::vector<PlaceInfo> places;
  places.reserve(places_doc.rows.size());
  for (const auto& row : places_doc.rows) {
    if (row.size() != 2) {
      return Status::InvalidArgument("places.csv: ragged row");
    }
    EEP_ASSIGN_OR_RETURN(int64_t pop, ParseInt(row[1]));
    places.push_back({row[0], pop});
  }
  EEP_ASSIGN_OR_RETURN(AttributeDomains domains,
                       AttributeDomains::Create(std::move(places)));

  EEP_ASSIGN_OR_RETURN(table::Schema workplace_schema,
                       domains.WorkplaceSchema());
  EEP_ASSIGN_OR_RETURN(table::Schema worker_schema, domains.WorkerSchema());
  EEP_ASSIGN_OR_RETURN(table::Schema job_schema, domains.JobSchema());
  EEP_ASSIGN_OR_RETURN(
      table::Table workplaces,
      ReadTableCsv(workplace_schema, dir + "/workplaces.csv"));
  EEP_ASSIGN_OR_RETURN(table::Table workers,
                       ReadTableCsv(worker_schema, dir + "/workers.csv"));
  EEP_ASSIGN_OR_RETURN(table::Table jobs,
                       ReadTableCsv(job_schema, dir + "/jobs.csv"));
  return LodesDataset::Create(std::move(domains), std::move(workers),
                              std::move(workplaces), std::move(jobs));
}

}  // namespace eep::lodes
