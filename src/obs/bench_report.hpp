#pragma once

// Process memory as the benches and perfbench report it.

namespace aero::obs {

/// Peak resident set size of this process in kB (0 where unsupported).
long peak_rss_kb();

}  // namespace aero::obs
