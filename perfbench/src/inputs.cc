#include "inputs.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/parser.h"
#include "relation/csv.h"
#include "relation/schema_parser.h"

namespace perfbench {

namespace {

using namespace cvrepair;

std::string CsvField(const Value& v) {
  if (v.is_null()) return "";
  if (v.kind() == ValueKind::kDouble) {
    // Every digit: the library's own CSV writer prints %g, which would
    // round the numeric census columns and change the instance.
    const double d = v.as_double();
    char buf[40];
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%.1f", d);
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", d);
    }
    return buf;
  }
  std::string s = v.ToString();
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  return quoted + "\"";
}

std::string ToCsv(const Relation& r) {
  std::ostringstream os;
  for (AttrId a = 0; a < r.num_attributes(); ++a) {
    os << (a ? "," : "") << r.schema().name(a);
  }
  os << "\n";
  for (int i = 0; i < r.num_rows(); ++i) {
    for (AttrId a = 0; a < r.num_attributes(); ++a) {
      os << (a ? "," : "") << CsvField(r.Get(i, a));
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace

GeneratedInput Generate(const std::string& dataset, int size, uint64_t seed) {
  GeneratedInput out;
  NoiseConfig noise;  // 5% error rate: the CLI default
  noise.seed += seed;
  if (dataset == "hosp") {
    HospConfig config;
    config.num_hospitals = size;
    HospData hosp = MakeHosp(config);
    noise.target_attrs = hosp.noise_attrs;
    out.dirty = InjectNoise(hosp.clean, noise).dirty;
    out.clean = std::move(hosp.clean);
    out.sigma = std::move(hosp.given_oversimplified);
    out.space = std::move(hosp.space);
  } else {
    CensusConfig config;
    config.num_rows = size;
    CensusData census = MakeCensus(config);
    noise.target_attrs = census.noise_attrs;
    out.dirty = InjectNoise(census.clean, noise).dirty;
    out.clean = std::move(census.clean);
    out.sigma = std::move(census.given);
  }
  out.schema_text = SchemaToString(out.dirty.schema());
  out.csv_text = ToCsv(out.dirty);
  out.constraints_text = ToString(out.sigma, out.dirty.schema());
  return out;
}

uint64_t ReplaySeed(uint64_t seed) { return 42 + seed; }

bool Parse(const GeneratedInput& input, ParsedInput* out, std::string* error) {
  ParseSchemaResult schema = ParseSchema(input.schema_text);
  if (!schema.ok()) {
    *error = "schema: " + schema.error;
    return false;
  }
  CsvResult data = ReadCsvString(*schema.schema, input.csv_text);
  if (!data.ok()) {
    *error = "data: " + data.error;
    return false;
  }
  ParseSetResult constraints =
      ParseConstraintSet(*schema.schema, input.constraints_text);
  if (!constraints.ok()) {
    *error = "constraints: " + constraints.error;
    return false;
  }
  out->data = std::move(*data.relation);
  out->sigma = std::move(*constraints.constraints);
  return true;
}

bool RoundTrips(const GeneratedInput& input, const ParsedInput& parsed) {
  const Relation& a = input.dirty;
  const Relation& b = parsed.data;
  if (parsed.sigma != input.sigma || a.num_rows() != b.num_rows() ||
      a.num_attributes() != b.num_attributes()) {
    return false;
  }
  for (int i = 0; i < a.num_rows(); ++i) {
    for (AttrId t = 0; t < a.num_attributes(); ++t) {
      if (!(a.Get(i, t) == b.Get(i, t))) return false;
    }
  }
  return true;
}

}  // namespace perfbench
