module polysynth_fsmd (
  input  wire clk,
  input  wire rst,
  input  signed [15:0] x,
  input  signed [15:0] y,
  input  signed [15:0] z,
  output signed [15:0] P1,
  output signed [15:0] P2,
  output signed [15:0] P3,
  output signed [15:0] P4,
  output wire done_o
);
  reg [4:0] state;
  reg signed [15:0] regs [0:7];
  assign done_o = (state == 5'd19);
  always @(posedge clk) begin
    if (rst) state <= 0;
    else if (!done_o) begin
      case (state)
        5'd0: begin
          regs[0] <= y - 16'd1; // add unit 0
          regs[1] <= y * x; // mult unit 0
        end
        5'd1: begin
          regs[2] <= x - 16'd1; // add unit 0
        end
        5'd2: begin
          regs[0] <= x - y; // add unit 0
          regs[2] <= regs[0] * regs[2]; // mult unit 0
        end
        5'd3: begin
          regs[3] <= y + x; // add unit 0
        end
        5'd4: begin
          regs[4] <= regs[3] * regs[3]; // mult unit 0
          regs[5] <= x - 16'd2; // add unit 0
        end
        5'd5: begin
          regs[5] <= 16'd5 * regs[5]; // add unit 0
        end
        5'd6: begin
          regs[0] <= 16'd7 * regs[0]; // add unit 0
          regs[6] <= regs[0] * regs[0]; // mult unit 0
        end
        5'd7: begin
          regs[4] <= 16'd13 * regs[4]; // add unit 0
        end
        5'd8: begin
          regs[1] <= 16'd11 * regs[3]; // add unit 0
          regs[2] <= regs[1] * regs[2]; // mult unit 0
        end
        5'd9: begin
          regs[3] <= 16'd15 * regs[6]; // add unit 0
        end
        5'd10: begin
          regs[6] <= z * z; // mult unit 0
          regs[7] <= 16'd3 * regs[2]; // add unit 0
        end
        5'd11: begin
          regs[0] <= regs[0] + regs[4]; // add unit 0
        end
        5'd12: begin
          regs[1] <= regs[1] + regs[3]; // add unit 0
          regs[2] <= regs[5] * regs[2]; // mult unit 0
        end
        5'd13: begin
          regs[3] <= 16'd3 * regs[6]; // add unit 0
        end
        5'd14: begin
          regs[4] <= z + regs[7]; // add unit 0
        end
        5'd15: begin
          regs[0] <= 16'd11 + regs[0]; // add unit 0
        end
        5'd16: begin
          regs[1] <= 16'd9 + regs[1]; // add unit 0
        end
        5'd17: begin
          regs[2] <= regs[2] + regs[3]; // add unit 0
        end
        5'd18: begin
          regs[3] <= 16'd1 + regs[4]; // add unit 0
        end
        default: ;
      endcase
      state <= state + 1;
    end
  end
  assign P1 = regs[0];
  assign P2 = regs[1];
  assign P3 = regs[2];
  assign P4 = regs[3];
endmodule
