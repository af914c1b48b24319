package serve

// MaxRequestIDLen exposes the inbound request-ID bound to the external
// tests, which drive both serving tiers.
const MaxRequestIDLen = maxRequestIDLen
