package jpegc

// Hooks for the external tests of package jpegc_test, which build their
// corpus through the puppies facade (an import this package cannot make).
var (
	DecodeChunks = decode
	SameCoeffs   = sameCoeffs
	ShareRender  = shareRender
	StdlibYCbCr  = stdlibYCbCr
)
