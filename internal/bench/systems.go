package bench

import "time"

// System overhead model for the paper's Bismarck / ScikitLearn /
// TensorFlow rows (Tables 6-7, Figure 11). The systems rows of the paper
// differ from the C++ rows by per-batch dispatch overheads and encoding
// choice, not by algorithm; this model applies multipliers — calibrated to
// the paper's reported same-regime gaps — to our measured native runtimes.
// README.md, "Reproducing the paper's evaluation", documents the
// substitution; the modeled rows are marked in every table that uses them.

// systemMultiplier returns the runtime multiplier of a system
// configuration relative to the native run of its underlying encoding.
func systemMultiplier(system, model string) float64 {
	switch system {
	case "BismarckTOC":
		// "typically less than 10 percent overhead compared with running
		// TOC in our c++ program" (§5.3) — storage fudge factor.
		return 1.08
	case "BismarckDEN", "BismarckCSR":
		return 1.10
	case "ScikitLearnDEN":
		return 1.6
	case "ScikitLearnCSR":
		if model == "nn" {
			return 2.8 // paper: ScikitLearn NN on CSR is ~3x TensorFlow
		}
		return 1.25
	case "TensorFlowDEN":
		if model == "nn" {
			return 0.92 // paper: TF's parallel NN beats the C++ loop
		}
		return 1.35
	case "TensorFlowCSR":
		if model == "nn" {
			return 1.35
		}
		return 1.5
	default:
		return 1.0
	}
}

// systemBase maps a system configuration to the native encoding whose
// measured runtime it scales.
func systemBase(system string) string {
	switch system {
	case "BismarckTOC":
		return "TOC"
	case "BismarckDEN", "ScikitLearnDEN", "TensorFlowDEN":
		return "DEN"
	case "BismarckCSR", "ScikitLearnCSR", "TensorFlowCSR":
		return "CSR"
	default:
		return system
	}
}

// systemSupports reports whether the paper ran this combination (Bismarck
// has no NN implementation — its Table 6 NN cells are N/A).
func systemSupports(system, model string) bool {
	if model == "nn" && (system == "BismarckDEN" || system == "BismarckCSR") {
		return false
	}
	return true
}

func modelSystemTime(system, model string, native time.Duration) time.Duration {
	return time.Duration(float64(native) * systemMultiplier(system, model))
}
