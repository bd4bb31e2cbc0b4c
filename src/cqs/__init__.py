"""Frobenius-algebra operators of truncated 2D Yang-Mills theories, compiled
into ancilla-assisted post-selected circuits and verified against dense
statevector oracles."""

__version__ = "0.1.0"

from .reptheory import (
    IrrepLabel,
    RepEntry,
    RepTable,
    casimir_su3,
    dim_su3,
    su3_truncation,
    load_rep_table,
    dump_rep_table,
)
from .encoding import (
    VACUUM,
    EncodingMap,
    paper_su3_encoding,
    default_encoding,
    encode_state,
    decode_state,
)
from .frobenius import (
    PhaseConvention,
    FrobeniusSpec,
    DenseOperator,
    boltzmann_weight,
    build_mu,
    build_delta,
    build_eta,
    build_epsilon,
    build_cylinder,
    logical_form,
    compose_word,
)
from .pauli import (
    PauliString,
    PauliTerm,
    FactoredOperator,
    NormalizedFactor,
    pauli_expand,
    pauli_reconstruct,
    normalize_factor,
    factorization_residual,
    best_product_approximation,
)
from .duality_compiler import (
    Gate,
    Circuit,
    CompileReport,
    prep_tree,
    compile_factor,
    paper_factored_form,
    compile_paper,
    compile_exact,
    emit_text,
)
from .statevector import (
    EffectiveOperator,
    run,
    run_state,
    effective_operator,
    cup,
    cap,
)
from .verify import (
    VerificationError,
    VerifyReport,
    compare_up_to_scale,
    axiom_suite,
    verify_compiled,
    reproduce_paper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
