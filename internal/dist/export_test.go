package dist

// Names the external tests of package dist_test use. They import core,
// which imports dist, so they cannot be in package dist; the aliases
// exist only in test builds.
type (
	EpochRequest   = epochRequest
	EpochResponse  = epochResponse
	HealthResponse = healthResponse
)

const PathEpoch = pathEpoch
