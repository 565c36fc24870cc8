// Lint fixture (never compiled): mutable globals outside the allowlist
// must trip the mutable-global rule; constants and functions must not.

int g_counter = 0;
static bool g_flag = false;
static double accumulator = 0.0;

static const char* kName = "fixture";
constexpr int kMax = 3;

static int HelperFunction(int x) { return x + kMax; }

int Use() { return HelperFunction(g_counter); }
