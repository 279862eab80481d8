// The paper-claims ledger behind `renamectl claims` (tools/claims.cpp).
#pragma once

#include <iosfwd>

namespace renamelib::tools {

/// Runs every claim of the ledger's fixed simulated preset, printing to
/// `out`. Returns 0 when every check held and 1 otherwise.
int run_claims(std::ostream& out);

}  // namespace renamelib::tools
