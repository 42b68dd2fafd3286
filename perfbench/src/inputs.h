#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "dc/constraint.h"
#include "dc/predicate_space.h"
#include "relation/relation.h"

namespace perfbench {

/// One generated workload input. The program under test receives only the
/// three texts, exactly as the CLI reads its three files; `clean` is the
/// scorer's ground truth and `dirty`/`sigma` are what the texts encode,
/// kept to check the round trip.
struct GeneratedInput {
  std::string schema_text;
  std::string csv_text;
  std::string constraints_text;
  /// The generator's recommended predicate space for the variant search —
  /// what the CLI's --generate mode passes along with the data.
  cvrepair::PredicateSpaceOptions space;
  cvrepair::Relation clean;
  cvrepair::Relation dirty;
  cvrepair::ConstraintSet sigma;
};

/// `dataset` is "hosp" (size = hospitals, 8 rows each) or "census" (size =
/// rows), with 5% noise. Seed 0 reproduces
/// `cvrepair_cli --generate <dataset> --size <size>`; any other seed moves
/// the noise seed, so the same clean population gets other errors. The
/// population stays fixed because its seed changes the violation count
/// over a range (hosp@60: 5,372 to 11,862) that no run length averages out.
GeneratedInput Generate(const std::string& dataset, int size, uint64_t seed);

/// The seed of the edit stream replayed against a served session.
uint64_t ReplaySeed(uint64_t seed);

/// The parsed input.
struct ParsedInput {
  cvrepair::Relation data;
  cvrepair::ConstraintSet sigma;
};

/// ParseSchema + ReadCsvString + ParseConstraintSet, as the CLI runs them.
/// Returns false with a message on any parse error.
bool Parse(const GeneratedInput& input, ParsedInput* out, std::string* error);

/// True iff `parsed` holds exactly the generated instance and constraints.
bool RoundTrips(const GeneratedInput& input, const ParsedInput& parsed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
