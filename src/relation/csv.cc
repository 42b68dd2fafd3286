#include "relation/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace cvrepair {

namespace {

// Reads the next CSV record starting at *pos, honoring double-quoted
// fields with "" escapes. A record ends at an unquoted newline (RFC 4180:
// a newline inside quotes belongs to the field, so one record may span
// several input lines) or at end of input. '\r' is dropped outside quotes
// (CRLF input) and kept verbatim inside them. *line is advanced past every
// newline consumed; *record_line is set to the line the record starts on.
//
// Returns false with an empty error when no record remains, and false with
// a message on an unterminated quote at end of input (a truncated file —
// silently closing the quote would hide data corruption).
bool ReadCsvRecord(const std::string& text, size_t* pos, int* line,
                   int* record_line, std::vector<std::string>* fields,
                   bool* blank, std::string* error) {
  fields->clear();
  *blank = true;
  if (*pos >= text.size()) return false;
  *record_line = *line;
  std::string cur;
  bool quoted = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (quoted) {
      if (c == '\n') ++*line;
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
      *blank = false;
    } else if (c == ',') {
      fields->push_back(cur);
      cur.clear();
      *blank = false;
    } else if (c == '\n') {
      ++*line;
      ++i;
      break;
    } else if (c != '\r') {
      cur += c;
      *blank = false;
    }
  }
  *pos = i;
  if (quoted) {
    *error = "unterminated quoted field in record starting at line " +
             std::to_string(*record_line);
    return false;
  }
  fields->push_back(cur);
  return true;
}

// '\r' too: the reader drops it outside quotes (CRLF input), so a bare
// one would not survive a write and re-read.
bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// A numeric field becomes a value only when the whole token parses into a
// finite, in-range number; anything else (garbage, trailing text, nan,
// inf, overflow) becomes NULL. NaN in particular must never enter a
// relation: EvalOp gives NaN != NaN, which no order-preserving dictionary
// code can represent.
Value ParseField(AttrType type, const std::string& field) {
  if (field.empty()) return Value::Null();
  switch (type) {
    case AttrType::kString:
      return Value::String(field);
    case AttrType::kInt: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(field.c_str(), &end, 10);
      if (*end != '\0' || errno == ERANGE) return Value::Null();
      return Value::Int(v);
    }
    case AttrType::kDouble: {
      char* end = nullptr;
      double v = std::strtod(field.c_str(), &end);
      if (*end != '\0' || !std::isfinite(v)) return Value::Null();
      return Value::Double(v);
    }
  }
  return Value::Null();
}

}  // namespace

CsvResult ReadCsvString(const Schema& schema, const std::string& text) {
  CsvResult result;
  size_t pos = 0;
  int line = 1;
  int record_line = 1;
  bool blank = false;
  std::vector<std::string> header;
  if (!ReadCsvRecord(text, &pos, &line, &record_line, &header, &blank,
                     &result.error)) {
    if (result.error.empty()) result.error = "empty CSV input";
    return result;
  }
  if (static_cast<int>(header.size()) != schema.num_attributes()) {
    result.error = "header has " + std::to_string(header.size()) +
                   " fields, schema has " +
                   std::to_string(schema.num_attributes());
    return result;
  }
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (header[a] != schema.name(a)) {
      result.error = "header field " + std::to_string(a) + " is '" +
                     header[a] + "', expected '" + schema.name(a) + "'";
      return result;
    }
  }
  Relation rel(schema);
  std::vector<std::string> fields;
  for (;;) {
    if (!ReadCsvRecord(text, &pos, &line, &record_line, &fields, &blank,
                       &result.error)) {
      if (!result.error.empty()) return result;
      break;
    }
    if (blank) continue;
    if (static_cast<int>(fields.size()) != schema.num_attributes()) {
      result.error = "line " + std::to_string(record_line) + " has " +
                     std::to_string(fields.size()) + " fields";
      return result;
    }
    std::vector<Value> row;
    row.reserve(fields.size());
    for (int a = 0; a < schema.num_attributes(); ++a) {
      row.push_back(ParseField(schema.type(a), fields[a]));
    }
    rel.AddRow(std::move(row));
  }
  result.relation = std::move(rel);
  return result;
}

CsvResult ReadCsvFile(const Schema& schema, const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    CsvResult result;
    result.error = "cannot open " + path;
    return result;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return ReadCsvString(schema, buf.str());
}

std::string WriteCsvString(const Relation& relation) {
  std::ostringstream os;
  const Schema& schema = relation.schema();
  for (int a = 0; a < schema.num_attributes(); ++a) {
    os << (a ? "," : "") << QuoteField(schema.name(a));
  }
  os << "\n";
  for (int i = 0; i < relation.num_rows(); ++i) {
    for (int a = 0; a < schema.num_attributes(); ++a) {
      if (a) os << ",";
      const Value& v = relation.Get(i, a);
      if (!v.is_null()) os << QuoteField(v.ToString());
    }
    // A one-attribute NULL row would be a blank line, which the reader
    // skips: write it as one quoted empty field.
    if (schema.num_attributes() == 1 && relation.Get(i, 0).is_null()) {
      os << "\"\"";
    }
    os << "\n";
  }
  return os.str();
}

bool WriteCsvFile(const Relation& relation, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << WriteCsvString(relation);
  return static_cast<bool>(f);
}

}  // namespace cvrepair
