//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared by the reader, printer and diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_SUPPORT_STRUTIL_H
#define MULT_SUPPORT_STRUTIL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mult {

/// Returns a printf-style formatted std::string.
std::string strFormat(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders \p Seconds with the precision the paper's tables use: three
/// significant digits below 10, otherwise no fraction digits beyond one.
std::string formatSeconds(double Seconds);

/// True if \p S consists only of ASCII whitespace.
bool isAllWhitespace(std::string_view S);

/// \p S cut at every character of \p Seps; n separators give n + 1 parts
/// (empty ones included).
std::vector<std::string_view> splitOn(std::string_view S,
                                      std::string_view Seps);

/// \p S without leading and trailing blanks (spaces, tabs and the '\r'
/// of a CRLF line): the rule of the spec grammars (fault plans, quotas,
/// supervision policies, site-policy files).
std::string_view trim(std::string_view S);

/// Parses a plain decimal uint64 (digits only, no sign, no overflow).
/// False on anything else; \p Out is then unchanged.
bool parseU64(std::string_view S, uint64_t &Out);

} // namespace mult

#endif // MULT_SUPPORT_STRUTIL_H
