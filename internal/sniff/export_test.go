package sniff

// Detect's helpers, exported to the external test package so FuzzSniff
// can hold Detect to an oracle built from the same parts.
var (
	LooksLikeXLSX  = looksLikeXLSX
	LooksLikeJSON  = looksLikeJSON
	LooksLikeText  = looksLikeText
	SniffDelimited = sniffDelimited
)

const SniffLimit = sniffLimit
