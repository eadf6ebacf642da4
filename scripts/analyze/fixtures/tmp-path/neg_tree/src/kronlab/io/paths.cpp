// Negative fixture tree: the rule covers tests/ only, and only string
// literals there.
// ANALYZE-EXPECT: tmp-path 0

const char* kDefault = "/tmp/kronlab";
