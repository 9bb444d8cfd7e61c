package detector

import (
	"sslab/internal/defense"
	"sslab/internal/netsim"
)

// StageTLSExempt names the TLS-whitelist stage.
const StageTLSExempt = "tlsexempt"

// tlsStage models a censor that exempts TLS-framed flows from every
// other detector to avoid mass-probing the web — the conjecture the
// FPStudy motivates and the mechanism application-fronting tools (§8)
// rely on. Listed in a chain, its Exempt verdict vetoes any Suspect
// verdict from the protocol stages.
type tlsStage struct{}

// Observe implements Stage.
//
//sslab:hotpath
func (tlsStage) Observe(f *netsim.Flow, sc *Scratch) Result {
	if defense.IsTLSFramed(f.FirstPayload) {
		return Result{Verdict: Exempt, Confidence: 1}
	}
	return Result{}
}
