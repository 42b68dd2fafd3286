#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

/// The calibration kernel's wall time on the recording host when it was
/// quiet (perfbench/README.md, Noise).
constexpr double kCalibrationReferenceS = 0.075;

/// Runs a fixed kernel of small allocations, hash-map inserts and lookups,
/// and a sort of string pairs, and returns its wall time in seconds. These
/// are the kinds of work the repair does, so the kernel slows down with it
/// when neighbours on a shared host contend for the core, its caches or
/// the allocator's memory. A tight arithmetic loop does not: it keeps its
/// speed while the repair slows by half. The kernel is part of the
/// benchmark, not of the library, so changes to the library cannot move it.
double CalibrationSeconds();

/// `seconds` measured next to a calibration run that took `calibration_s`,
/// scaled to the recording host's quiet speed.
inline double Calibrated(double seconds, double calibration_s) {
  return seconds * kCalibrationReferenceS / calibration_s;
}

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
