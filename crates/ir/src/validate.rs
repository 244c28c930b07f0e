//! Message-level cases for the [`crate::verify()`] rule catalogue: each
//! pins the human-readable detail a rule reports (front-ends match on
//! these substrings), next to the code-level cases in `verify.rs`.

#[cfg(test)]
mod tests {
    use crate::opcode::Opcode;
    use crate::operand::ViewRef;
    use crate::parse::parse_program;
    use crate::program::ProgramBuilder;
    use crate::verify::{verify, verify_instr};
    use bh_tensor::Scalar;

    fn assert_valid(text: &str) {
        let p = parse_program(text).unwrap();
        if let Err(es) = verify(&p) {
            panic!("expected valid, got: {:?}", es);
        }
    }

    fn first_error(text: &str) -> String {
        let p = parse_program(text).unwrap();
        verify(&p).unwrap_err()[0].to_string()
    }

    #[test]
    fn listing2_is_valid() {
        assert_valid(
            "BH_IDENTITY a0 [0:10:1] 0\n\
             BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
             BH_SYNC a0 [0:10:1]\n",
        );
    }

    #[test]
    fn read_before_write_flagged() {
        let msg = first_error("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n");
        assert!(msg.contains("read before any write"), "{msg}");
    }

    #[test]
    fn input_bases_may_be_read_first() {
        assert_valid(
            ".base x f64[4] input\n\
             .base y f64[4]\n\
             BH_MULTIPLY y x x\n\
             BH_SYNC y\n",
        );
    }

    #[test]
    fn shape_mismatch_flagged() {
        let msg = first_error(
            ".base x f64[4] input\n\
             .base y f64[5]\n\
             BH_IDENTITY y x\n",
        );
        assert!(msg.contains("does not broadcast"), "{msg}");
    }

    #[test]
    fn broadcastable_inputs_accepted() {
        assert_valid(
            ".base x f64[1] input\n\
             .base y f64[5]\n\
             BH_IDENTITY y 0\n\
             BH_ADD y y x\n\
             BH_SYNC y\n",
        );
    }

    #[test]
    fn dtype_rule_violations() {
        let msg = first_error(
            ".base x i32[4] input\n\
             .base y i32[4]\n\
             BH_SQRT y x\n",
        );
        assert!(msg.contains("does not support dtype"), "{msg}");
        let msg = first_error(
            ".base x f64[4] input\n\
             .base y i32[4] input\n\
             .base z f64[4]\n\
             BH_ADD z x y\n",
        );
        assert!(msg.contains("dtypes disagree"), "{msg}");
    }

    #[test]
    fn comparison_output_must_be_bool() {
        let msg = first_error(
            ".base x f64[4] input\n\
             .base y f64[4]\n\
             BH_GREATER y x x\n",
        );
        assert!(msg.contains("result dtype"), "{msg}");
        assert_valid(
            ".base x f64[4] input\n\
             .base m bool[4]\n\
             BH_GREATER m x x\n\
             BH_SYNC m\n",
        );
    }

    #[test]
    fn identity_casts_freely() {
        assert_valid(
            ".base x i32[4] input\n\
             .base y f64[4]\n\
             BH_IDENTITY y x\n\
             BH_SYNC y\n",
        );
    }

    #[test]
    fn reduction_shapes_and_axis() {
        assert_valid(
            ".base m f64[3,4] input\n\
             .base s f64[3]\n\
             BH_ADD_REDUCE s m 1\n\
             BH_SYNC s\n",
        );
        let msg = first_error(
            ".base m f64[3,4] input\n\
             .base s f64[3]\n\
             BH_ADD_REDUCE s m 7\n",
        );
        assert!(msg.contains("axis 7 out of range"), "{msg}");
        let msg = first_error(
            ".base m f64[3,4] input\n\
             .base s f64[4]\n\
             BH_ADD_REDUCE s m 1\n",
        );
        assert!(msg.contains("should be (3)"), "{msg}");
    }

    #[test]
    fn scan_preserves_shape() {
        assert_valid(
            ".base m f64[6] input\n\
             .base c f64[6]\n\
             BH_ADD_ACCUMULATE c m 0\n\
             BH_SYNC c\n",
        );
        let msg = first_error(
            ".base m f64[6] input\n\
             .base c f64[5]\n\
             BH_ADD_ACCUMULATE c m 0\n",
        );
        assert!(msg.contains("scan preserves shape"), "{msg}");
    }

    #[test]
    fn matmul_dims() {
        assert_valid(
            ".base a f64[2,3] input\n\
             .base b f64[3,4] input\n\
             .base c f64[2,4]\n\
             BH_MATMUL c a b\n\
             BH_SYNC c\n",
        );
        let msg = first_error(
            ".base a f64[2,3] input\n\
             .base b f64[2,4] input\n\
             .base c f64[2,4]\n\
             BH_MATMUL c a b\n",
        );
        assert!(msg.contains("inner dimensions disagree"), "{msg}");
    }

    #[test]
    fn solve_and_inverse_shapes() {
        assert_valid(
            ".base a f64[3,3] input\n\
             .base b f64[3] input\n\
             .base x f64[3]\n\
             BH_SOLVE x a b\n\
             BH_SYNC x\n",
        );
        let msg = first_error(
            ".base a f64[3,4] input\n\
             .base i f64[3,4]\n\
             BH_INVERSE i a\n",
        );
        assert!(msg.contains("square"), "{msg}");
    }

    #[test]
    fn random_seed_validated() {
        assert_valid(".base r f64[8]\nBH_RANDOM r 42\nBH_SYNC r\n");
        let msg = first_error(".base r f64[8]\nBH_RANDOM r 1.5\n");
        assert!(msg.contains("integral"), "{msg}");
    }

    #[test]
    fn free_of_unwritten_base_is_legal() {
        assert_valid(".base x f64[4]\nBH_FREE x\n");
    }

    #[test]
    fn programmatic_arity_error_caught() {
        let mut b = ProgramBuilder::new(bh_tensor::DType::Float64, bh_tensor::Shape::vector(2));
        let a = b.reg("a");
        b.identity_const(a, Scalar::F64(0.0));
        let mut p = b.build();
        // Hand-build a malformed BH_ADD with a single input.
        p.push(crate::instr::Instruction::unary(
            Opcode::Add,
            ViewRef::full(a),
            Scalar::F64(1.0),
        ));
        let errs = verify(&p).unwrap_err();
        assert!(errs[0].to_string().contains("expects 3 operands"));
    }

    #[test]
    fn validate_instr_reports_every_problem() {
        let p = parse_program(
            ".base x i32[4] input\n\
             .base y i32[5]\n\
             BH_SQRT y x\n",
        )
        .unwrap();
        let errs = verify_instr(&p, &p.instrs()[0]);
        assert!(errs.len() >= 2, "want broadcast + dtype findings: {errs:?}");
        assert_valid(".base ok f64[2]\nBH_IDENTITY ok 1\nBH_SYNC ok\n");
        assert!(verify_instr(&p, &crate::instr::Instruction::noop()).is_empty());
    }
}
