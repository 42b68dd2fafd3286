#ifndef CVREPAIR_RELATION_CSV_H_
#define CVREPAIR_RELATION_CSV_H_

#include <optional>
#include <string>

#include "relation/relation.h"

namespace cvrepair {

/// Result of a CSV parse: either a relation or a human-readable error.
struct CsvResult {
  std::optional<Relation> relation;
  std::string error;

  bool ok() const { return relation.has_value(); }
};

/// Parses CSV text (first record = header) into a relation using `schema`
/// for types. Header names must match the schema's attribute names and
/// order. Empty fields become NULL, and so does a numeric field unless the
/// whole token parses into a finite, in-range number of its column type:
/// `abc`, `5x`, `nan`, `inf`, `1e999` and, in an int column,
/// `99999999999999999999` all load as NULL.
///
/// Quoting follows RFC 4180: fields may be double-quoted, `""` escapes a
/// quote, and a quoted field may contain commas and newlines (one record
/// can span several input lines). A quote left open at end of input is a
/// parse error — the file is truncated mid-record, and guessing the
/// missing close quote would silently swallow the damage.
CsvResult ReadCsvString(const Schema& schema, const std::string& text);

/// Reads a CSV file from disk; see ReadCsvString.
CsvResult ReadCsvFile(const Schema& schema, const std::string& path);

/// Serializes a relation to CSV (header + rows). Fresh variables render as
/// "fv_<id>", NULL renders as the empty field. A field holding a comma, a
/// quote, a newline or a carriage return is quoted, and a double carries
/// every digit it needs, so ReadCsvString reads back every relation it
/// produced cell for cell.
std::string WriteCsvString(const Relation& relation);

/// Writes WriteCsvString(relation) to `path`; returns false on I/O error.
bool WriteCsvFile(const Relation& relation, const std::string& path);

}  // namespace cvrepair

#endif  // CVREPAIR_RELATION_CSV_H_
