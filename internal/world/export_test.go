package world

// Fingerprint exposes fingerprintOf to the external test package, whose tests
// install adversaries (package adversary imports world). The result is a
// comparable struct: two runs match when their fingerprints are ==.
func Fingerprint(w *World) any { return fingerprintOf(w) }
