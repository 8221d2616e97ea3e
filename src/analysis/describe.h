#ifndef SQLOG_ANALYSIS_DESCRIBE_H_
#define SQLOG_ANALYSIS_DESCRIBE_H_

#include <string>

#include "sql/skeleton.h"

namespace sqlog::analysis {

/// Produces a short human-readable description of what a query template
/// does — the "Description" column of the paper's Table 7, generated
/// heuristically instead of by hand: spatial searches via the SkyServer
/// table functions, HTM-range counts, point lookups by key, sliding
/// range scans, metadata browsing, and generic fallbacks.
std::string DescribeTemplate(const sql::TemplateFacts& facts);

}  // namespace sqlog::analysis

#endif  // SQLOG_ANALYSIS_DESCRIBE_H_
