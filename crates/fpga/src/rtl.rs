//! RTL template emission.
//!
//! The paper's backend keeps "pre-defined RTL of all blocks with scaling
//! parameters subject to the design configuration generated from DAG"
//! (Sec. IV-A) and synthesizes it into a bitstream. This module is the
//! template side of that flow: it renders parameterized SystemVerilog
//! skeletons — the AdArray PE grid with its passing-register stream path,
//! the SIMD unit, the re-organizable memory blocks and the top level —
//! with every scaling parameter filled in from a [`DesignConfig`].
//!
//! The output is a faithful *structural* template (module hierarchy,
//! parameter lists, generate loops, port directions) rather than a
//! verified implementation; synthesizing it is outside this
//! reproduction's scope (DESIGN.md §1).

use std::fmt::Write as _;

use crate::design::DesignConfig;

/// Renders the complete RTL bundle: one string containing every module,
/// topologically ordered (leaf modules first).
#[must_use]
pub fn emit_rtl(config: &DesignConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// NSFlow generated RTL template — workload: {}\n\
         // array {}x{}x{}, SIMD x{}, {} / {} precision, target {:.0} MHz\n",
        config.workload,
        config.array.height(),
        config.array.width(),
        config.array.n_subarrays(),
        config.simd_lanes,
        config.precision.neural,
        config.precision.symbolic,
        config.freq_hz / 1.0e6
    );
    out.push_str(&emit_pe(config));
    out.push('\n');
    out.push_str(&emit_subarray(config));
    out.push('\n');
    out.push_str(&emit_simd(config));
    out.push('\n');
    out.push_str(&emit_memory(config));
    out.push('\n');
    out.push_str(&emit_top(config));
    out
}

/// The dual-mode PE: weight-stationary MAC with the extra passing
/// register and vertical port that enable circular-convolution streaming
/// (paper Fig. 3(b)).
#[must_use]
fn emit_pe(config: &DesignConfig) -> String {
    let nn_w = config.precision.neural.bits();
    let sy_w = config.precision.symbolic.bits();
    let acc_w = 2 * nn_w.max(sy_w) + 8; // product + accumulation guard bits
    format!(
        "module nsflow_pe #(\n\
         \x20 parameter NN_W  = {nn_w},\n\
         \x20 parameter SYM_W = {sy_w},\n\
         \x20 parameter ACC_W = {acc_w}\n\
         ) (\n\
         \x20 input  logic                clk,\n\
         \x20 input  logic                rst_n,\n\
         \x20 input  logic                mode_vsa,      // 0: NN weight-stationary, 1: VSA streaming\n\
         \x20 input  logic [NN_W-1:0]     stationary_in, // weight / held vector element\n\
         \x20 input  logic                stationary_we,\n\
         \x20 input  logic [NN_W-1:0]     west_in,       // NN activation stream\n\
         \x20 output logic [NN_W-1:0]     east_out,\n\
         \x20 input  logic [SYM_W-1:0]    north_in,      // VSA stream (via passing reg)\n\
         \x20 input  logic [SYM_W-1:0]    north_pass_in, // neighbour's previous right output\n\
         \x20 output logic [SYM_W-1:0]    south_pass_out,\n\
         \x20 input  logic [ACC_W-1:0]    psum_in,\n\
         \x20 output logic [ACC_W-1:0]    psum_out\n\
         );\n\
         \x20 logic [NN_W-1:0]  stationary_q;\n\
         \x20 logic [SYM_W-1:0] passing_q;    // 1-cycle pace mismatch for circular conv\n\
         \x20 logic [SYM_W-1:0] streaming_q;\n\
         \x20 always_ff @(posedge clk) begin\n\
         \x20   if (stationary_we) stationary_q <= stationary_in;\n\
         \x20   passing_q   <= mode_vsa ? north_pass_in : '0;\n\
         \x20   streaming_q <= passing_q;\n\
         \x20   psum_out    <= psum_in + (mode_vsa\n\
         \x20                   ? ACC_W'(stationary_q) * ACC_W'(streaming_q)\n\
         \x20                   : ACC_W'(stationary_q) * ACC_W'(west_in));\n\
         \x20   east_out    <= west_in;\n\
         \x20   south_pass_out <= streaming_q;\n\
         \x20 end\n\
         endmodule\n"
    )
}

/// One H×W sub-array with the fold select that merges it with its
/// neighbour for NN mode or isolates its columns for VSA streams.
#[must_use]
fn emit_subarray(config: &DesignConfig) -> String {
    let h = config.array.height();
    let w = config.array.width();
    format!(
        "module nsflow_subarray #(\n\
         \x20 parameter H = {h},\n\
         \x20 parameter W = {w}\n\
         ) (\n\
         \x20 input  logic clk, rst_n,\n\
         \x20 input  logic mode_vsa,\n\
         \x20 input  logic merge_east,  // adaptive folding: bridge to the adjacent sub-array\n\
         \x20 input  logic [H-1:0][7:0] act_west,\n\
         \x20 input  logic [W-1:0][7:0] stream_north,\n\
         \x20 output logic [W-1:0][31:0] psum_south\n\
         );\n\
         \x20 genvar r, c;\n\
         \x20 generate\n\
         \x20   for (r = 0; r < H; r++) begin : row\n\
         \x20     for (c = 0; c < W; c++) begin : col\n\
         \x20       nsflow_pe pe (.clk(clk), .rst_n(rst_n), .mode_vsa(mode_vsa) /* mesh ports elided */);\n\
         \x20     end\n\
         \x20   end\n\
         \x20 endgenerate\n\
         endmodule\n"
    )
}

/// The custom SIMD unit: `lanes` compact ALUs plus a reduction tree.
#[must_use]
fn emit_simd(config: &DesignConfig) -> String {
    let lanes = config.simd_lanes;
    let depth = usize::BITS - (lanes.max(1) - 1).leading_zeros();
    format!(
        "module nsflow_simd #(\n\
         \x20 parameter LANES = {lanes},\n\
         \x20 parameter TREE_DEPTH = {depth}\n\
         ) (\n\
         \x20 input  logic clk, rst_n,\n\
         \x20 input  logic [3:0] op, // sum/mult/div/exp/log/tanh/norm/softmax\n\
         \x20 input  logic [LANES-1:0][15:0] a, b,\n\
         \x20 output logic [LANES-1:0][15:0] y,\n\
         \x20 output logic [31:0] reduced\n\
         );\n\
         \x20 // per-lane compact logic + log2(LANES)-stage adder tree\n\
         endmodule\n"
    )
}

/// The re-organizable memory: double-buffered Mem_A1/A2/B/C with the
/// runtime merge switch, plus the URAM cache.
#[must_use]
fn emit_memory(config: &DesignConfig) -> String {
    let m = &config.memory;
    format!(
        "module nsflow_memory #(\n\
         \x20 parameter MEM_A1_BYTES = {},\n\
         \x20 parameter MEM_A2_BYTES = {},\n\
         \x20 parameter MEM_B_BYTES  = {},\n\
         \x20 parameter MEM_C_BYTES  = {},\n\
         \x20 parameter CACHE_BYTES  = {}\n\
         ) (\n\
         \x20 input  logic clk, rst_n,\n\
         \x20 input  logic merge_a,   // runtime merge of Mem_A1 + Mem_A2\n\
         \x20 input  logic buf_sel,   // double-buffer ping/pong\n\
         \x20 output logic axi_req    // off-chip transaction request\n\
         );\n\
         \x20 // BRAM banks for A1/A2/B/C (x2 for double buffering), URAM cache\n\
         endmodule\n",
        m.mem_a1, m.mem_a2, m.mem_b, m.mem_c, m.cache
    )
}

/// Top level: N sub-arrays, the SIMD unit, the memory system and the
/// fold/schedule controller driven by the host configuration registers.
#[must_use]
fn emit_top(config: &DesignConfig) -> String {
    let n = config.array.n_subarrays();
    let (nl, nv) = config.default_partition;
    format!(
        "module nsflow_top #(\n\
         \x20 parameter N_SUBARRAYS = {n},\n\
         \x20 parameter DEFAULT_NN_FOLD = {nl},\n\
         \x20 parameter DEFAULT_VSA_FOLD = {nv}\n\
         ) (\n\
         \x20 input  logic clk, rst_n,\n\
         \x20 input  logic [31:0] csr_addr, csr_wdata,\n\
         \x20 output logic [31:0] csr_rdata\n\
         );\n\
         \x20 genvar s;\n\
         \x20 generate\n\
         \x20   for (s = 0; s < N_SUBARRAYS; s++) begin : sub\n\
         \x20     nsflow_subarray u_sub (.clk(clk), .rst_n(rst_n) /* fold fabric elided */);\n\
         \x20   end\n\
         \x20 endgenerate\n\
         \x20 nsflow_simd   u_simd (.clk(clk), .rst_n(rst_n));\n\
         \x20 nsflow_memory u_mem  (.clk(clk), .rst_n(rst_n));\n\
         endmodule\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_arch::memory::MemoryPlan;
    use nsflow_arch::{ArrayConfig, PrecisionConfig};

    fn config() -> DesignConfig {
        DesignConfig {
            workload: "nvsa".into(),
            array: ArrayConfig::new(32, 16, 16).unwrap(),
            default_partition: (14, 2),
            simd_lanes: 64,
            memory: MemoryPlan {
                mem_a1: 1000,
                mem_a2: 500,
                mem_b: 2000,
                mem_c: 300,
                cache: 7600,
            },
            precision: PrecisionConfig::mixed(),
            freq_hz: 272.0e6,
        }
    }

    #[test]
    fn bundle_contains_every_module() {
        let rtl = emit_rtl(&config());
        for module in [
            "nsflow_pe",
            "nsflow_subarray",
            "nsflow_simd",
            "nsflow_memory",
            "nsflow_top",
        ] {
            assert!(
                rtl.contains(&format!("module {module}")),
                "missing {module}"
            );
        }
        // Balanced module/endmodule pairs.
        assert_eq!(
            rtl.matches("module ").count(),
            rtl.matches("endmodule").count()
        );
    }

    #[test]
    fn scaling_parameters_come_from_the_config() {
        let rtl = emit_rtl(&config());
        assert!(rtl.contains("parameter H = 32"));
        assert!(rtl.contains("parameter W = 16"));
        assert!(rtl.contains("parameter N_SUBARRAYS = 16"));
        assert!(rtl.contains("parameter LANES = 64"));
        assert!(rtl.contains("parameter MEM_A1_BYTES = 1000"));
        assert!(rtl.contains("DEFAULT_NN_FOLD = 14"));
        assert!(rtl.contains("DEFAULT_VSA_FOLD = 2"));
    }

    #[test]
    fn pe_template_has_the_passing_register_path() {
        let pe = emit_pe(&config());
        assert!(pe.contains("passing_q"));
        assert!(pe.contains("streaming_q"));
        assert!(
            pe.contains("streaming_q <= passing_q"),
            "2-cycle stream hop missing"
        );
        assert!(pe.contains("mode_vsa"));
    }

    #[test]
    fn pe_widths_follow_precision() {
        let rtl = emit_pe(&config());
        assert!(rtl.contains("parameter NN_W  = 8"));
        assert!(rtl.contains("parameter SYM_W = 4"));
        let fp16 = DesignConfig {
            precision: PrecisionConfig::uniform(nsflow_tensor::DType::Fp16),
            ..config()
        };
        assert!(emit_pe(&fp16).contains("parameter NN_W  = 16"));
    }

    #[test]
    fn emission_is_deterministic() {
        assert_eq!(emit_rtl(&config()), emit_rtl(&config()));
    }
}
